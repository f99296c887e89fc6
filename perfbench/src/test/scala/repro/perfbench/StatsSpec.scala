package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  private def samples(n: Int): Seq[Double] = scala.util.Random.shuffle((1 to n).map(_.toDouble))

  test("percentile uses the nearest rank") {
    val xs = samples(20)
    assert(Stats.percentile(xs, 50) == 10.0)
    assert(Stats.percentile(xs, 51) == 11.0)
    assert(Stats.percentile(xs, 100) == 20.0)
    assert(Stats.percentile(xs, 1) == 1.0)
  }

  test("median averages the two middle samples of an even count") {
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
  }

  test("tail is the highest percentile with at least ten samples beyond it") {
    assert(Stats.tail(samples(20)).contains((50, 10.0)))
    assert(Stats.tail(samples(25)).contains((60, 15.0)))
    assert(Stats.tail(samples(100)).contains((90, 90.0)))
    assert(Stats.tail(samples(1000)).contains((99, 990.0)))
    for (n <- 11 to 400) {
      val (p, v) = Stats.tail(samples(n)).get
      assert(n - v >= 10, s"n=$n: p$p leaves ${n - v} beyond")
      if (p < 99) assert(n - Stats.percentile(samples(n), p + 1) < 10, s"n=$n: p${p + 1} also qualifies")
    }
  }

  test("tail needs more than ten samples") {
    assert(Stats.tail(samples(10)).isEmpty)
    assert(Stats.tail(samples(11)).contains((9, 1.0)))
  }

  test("uncovered measures the gaps between possibly overlapping intervals") {
    assert(Stats.uncovered(0, 100, Seq.empty) == 100)
    assert(Stats.uncovered(0, 100, Seq((10L, 20L), (15L, 30L), (50L, 60L))) == 70)
    assert(Stats.uncovered(0, 100, Seq((-5L, 10L), (90L, 120L))) == 80)
    assert(Stats.uncovered(0, 100, Seq((0L, 100L))) == 0)
  }
}
