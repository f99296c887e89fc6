package repro.uncertain

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.Check
import scala.util.Random

class UncertainGraphSpec extends AnyFunSuite {

  private def fig1 = UncertainGraph.fromEdges(4,
    Seq((0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7))) // A=0,B=1,C=2,D=3

  test("world probabilities of all masks sum to 1") {
    val rnd = new Random(5)
    for (_ <- 0 until 10) {
      val det = Check.randomGraph(rnd, 2, 6)
      val probs = Check.randomProbs(rnd, det.m)
      val ug = UncertainGraph(det.n, det.edgeU, det.edgeV, probs)
      val total = (0L until (1L << ug.m)).map(mask => ug.worldProbability(ug.worldOfMask(mask))).sum
      assert(math.abs(total - 1.0) < 1e-9)
    }
  }

  test("Figure 1 world probabilities") {
    val g = fig1
    def pOf(mask: Long) = g.worldProbability(g.worldOfMask(mask))
    assert(math.abs(pOf(0) - 0.108) < 1e-12)  // G1: no edges
    assert(math.abs(pOf(1) - 0.072) < 1e-12)  // G2: AB
    assert(math.abs(pOf(2) - 0.072) < 1e-12)  // G3: AC
    assert(math.abs(pOf(4) - 0.252) < 1e-12)  // G4: BD
    assert(math.abs(pOf(3) - 0.048) < 1e-12)  // G5: AB,AC
    assert(math.abs(pOf(5) - 0.168) < 1e-12)  // G6: AB,BD
    assert(math.abs(pOf(6) - 0.168) < 1e-12)  // G7: AC,BD
    assert(math.abs(pOf(7) - 0.112) < 1e-12)  // G8: all
  }

  test("world() builds the right possible world") {
    val g = fig1
    val w = g.world(Array(true, false, true))
    assert(w.m == 2 && w.hasEdge(0, 1) && w.hasEdge(1, 3) && !w.hasEdge(0, 2))
  }

  test("deterministic version has all edges") {
    assert(fig1.deterministic.m == 3)
  }

  test("probStats: mean/std/quartiles") {
    val g = UncertainGraph.fromEdges(3, Seq((0, 1, 0.2), (1, 2, 0.4), (0, 2, 0.6)))
    val (mean, std, (q1, q2, q3)) = g.probStats
    assert(math.abs(mean - 0.4) < 1e-12)
    assert(math.abs(std - math.sqrt(0.08 / 3)) < 1e-12)
    assert(q1 == 0.2 && q2 == 0.4 && q3 == 0.6)
  }

  test("fromEdges canonicalises and dedups") {
    val g = UncertainGraph.fromEdges(3, Seq((2, 0, 0.5), (0, 2, 0.9), (1, 2, 0.3)))
    assert(g.m == 2)
    assert(g.edgeU(0) == 0 && g.edgeV(0) == 2 && g.prob(0) == 0.5)
  }

  test("inducedEdges restricts to the node set") {
    val g = fig1
    assert(g.inducedEdges(Set(0, 1, 2)).toSet == Set((0, 1, 0.4), (0, 2, 0.4)))
  }

  test("probabilities outside (0,1] are rejected") {
    intercept[IllegalArgumentException] {
      UncertainGraph.fromEdges(2, Seq((0, 1, 0.0)))
    }
    intercept[IllegalArgumentException] {
      UncertainGraph.fromEdges(2, Seq((0, 1, 1.5)))
    }
  }

  test("node ids outside [0, n) are rejected, naming the edge") {
    val high = intercept[IllegalArgumentException] {
      UncertainGraph.fromEdges(3, Seq((0, 1, 0.5), (1, 3, 0.5)))
    }
    assert(high.getMessage.contains("(1, 3)"))
    val low = intercept[IllegalArgumentException] {
      UncertainGraph.fromEdges(3, Seq((-1, 2, 0.5)))
    }
    assert(low.getMessage.contains("(-1, 2)"))
  }
}
