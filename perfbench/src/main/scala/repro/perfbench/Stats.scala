package repro.perfbench

/** Order statistics for the benchmark's timings. Percentiles use the
  * nearest-rank rule: percentile p of n sorted samples is the sample at
  * 1-based rank ⌈p·n/100⌉, so exactly n − rank samples lie beyond it.
  */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  private def rank(p: Int, n: Int): Int = math.max(1, math.ceil(p.toDouble * n / 100).toInt)

  /** Nearest-rank percentile `p` (1..100) of `xs`. */
  def percentile(xs: Seq[Double], p: Int): Double = {
    require(xs.nonEmpty && p >= 1 && p <= 100)
    xs.sorted.apply(rank(p, xs.length) - 1)
  }

  /** The tail percentile: the highest whole percentile that still leaves at
    * least `beyond` samples above its rank, with its value. None when there
    * are too few samples for any percentile to qualify.
    */
  def tail(xs: Seq[Double], beyond: Int = 10): Option[(Int, Double)] = {
    val n = xs.length
    (99 to 1 by -1).find(p => n - rank(p, n) >= beyond).map(p => (p, percentile(xs, p)))
  }

  /** Length of the parts of [from, to] that no interval covers. */
  def uncovered(from: Long, to: Long, intervals: Seq[(Long, Long)]): Long = {
    var covered = 0L
    var reach = from
    for ((s, e) <- intervals.map { case (s, e) => (math.max(s, from), math.min(e, to)) }.filter(i => i._2 > i._1).sortBy(_._1)) {
      if (e > reach) { covered += e - math.max(s, reach); reach = e }
    }
    (to - from) - covered
  }
}
