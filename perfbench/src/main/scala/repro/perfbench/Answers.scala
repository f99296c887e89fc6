package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._

/** A top-k answer: node sets in rank order, each with its score (τ̂ for
  * MPDS, γ̂ for NDS, exact τ for ExactMPDS).
  */
final case class Answer(entries: Seq[Answer.Entry]) {
  def scores: Seq[Double] = entries.map(_.score)
}

object Answer {
  final case class Entry(nodes: Seq[Int], score: Double)
}

/** Answer checks: structural checks that every query must pass, and a
  * tie-tolerant comparison against a reference answer.
  */
object Answers {

  private val Eps = 1e-9

  private def same(x: Double, y: Double): Boolean = math.abs(x - y) <= Eps * math.max(1.0, math.abs(y))

  /** Problems with one answer of a top-`k` query. Sampled scores must be a
    * frequency over `theta` worlds; exact scores (`theta` = None) are
    * probabilities.
    */
  def structural(a: Answer, k: Int, theta: Option[Int]): Seq[String] = {
    val es = a.entries
    val problems = Seq.newBuilder[String]
    if (es.isEmpty) problems += "empty answer"
    if (es.size > k) problems += s"${es.size} sets for k=$k"
    if (es.map(_.nodes).distinct.size != es.size) problems += "duplicate node set"
    for (e <- es) {
      if (e.nodes.isEmpty || e.nodes.zip(e.nodes.drop(1)).exists { case (x, y) => x >= y })
        problems += s"node set ${e.nodes.mkString(",")} is empty or not sorted"
      if (!(e.score > 0.0 && e.score <= 1.0 + Eps)) problems += s"score ${e.score} outside (0, 1]"
      for (t <- theta) {
        val freq = e.score * t
        if (math.abs(freq - math.rint(freq)) > 1e-6) problems += s"score ${e.score} is not freq/$t"
      }
    }
    if (es.zip(es.drop(1)).exists { case (x, y) => y.score > x.score + Eps })
      problems += "scores not in descending order"
    problems.result()
  }

  /** Agreement of `got` with `ref` for a top-`k` query, or the reason they
    * disagree. The score sequences must match. Every node set scoring above
    * the k-th score must match; node sets tied at the k-th score may differ
    * in membership, because which of them make the cut is a tie-break. When
    * fewer than k sets exist nothing was cut and every set must match.
    */
  def agree(got: Answer, ref: Answer, k: Int): Option[String] = {
    val (g, r) = (got.scores, ref.scores)
    if (g.size != r.size) return Some(s"${g.size} sets, reference has ${r.size}")
    val firstDiff = g.indices.find(i => !same(g(i), r(i)))
    if (firstDiff.nonEmpty) {
      val i = firstDiff.get
      return Some(s"score at rank ${i + 1} is ${g(i)}, reference ${r(i)}")
    }
    if (r.isEmpty) return None
    val cut = r.last
    val truncated = r.size >= k
    def level(a: Answer, s: Double): Set[Seq[Int]] =
      a.entries.filter(e => same(e.score, s)).map(_.nodes).toSet
    r.distinct
      .filterNot(s => truncated && same(s, cut))
      .find(s => level(got, s) != level(ref, s))
      .map(s => s"node sets at score $s differ from the reference")
  }

  /** Reference answers, keyed by (workload, query index). One line per
    * answer entry: workload, query index, rank, score, comma-joined nodes.
    */
  def readReference(path: Path): Map[(String, Int), Answer] =
    Files.readAllLines(path, StandardCharsets.UTF_8).asScala.toSeq
      .filter(l => l.nonEmpty && !l.startsWith("#"))
      .map(_.split('\t'))
      .map(f => ((f(0), f(1).toInt), f(2).toInt, Answer.Entry(f(4).split(',').map(_.toInt).toSeq, f(3).toDouble)))
      .groupBy(_._1)
      .map { case (key, rows) => key -> Answer(rows.sortBy(_._2).map(_._3)) }

  def referenceLines(workload: String, query: Int, a: Answer): Seq[String] =
    a.entries.zipWithIndex.map { case (e, i) =>
      s"$workload\t$query\t${i + 1}\t${e.score}\t${e.nodes.mkString(",")}"
    }
}
