package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.Check

class EdgeDensestSpec extends AnyFunSuite {

  test("maxDensity matches brute force") {
    Check.forAllGraphs(60, 3, 9) { g =>
      val (a, b, witness) = EdgeDensest.maxDensity(g)
      val (bn, bd, _) = BruteForce.allEdgeDensest(g)
      assert(a == bn && b == bd, s"got $a/$b expected $bn/$bd")
      if (g.m > 0) {
        val s = (0 until g.n).filter(witness(_)).toSet
        assert(BruteForce.edgesInside(g, s).toLong * b == a * s.size.toLong)
      }
    }
  }

  test("allDensest enumerates exactly the brute-force densest family") {
    Check.forAllGraphs(60, 3, 9) { g =>
      val r = InstanceDensest.allDensest(g, InstanceFamily.Edge)
      val (bn, bd, all) = BruteForce.allEdgeDensest(g)
      assert(r.num == bn && r.den == bd)
      assert(!r.capped)
      val got = r.all.map(_.toSet).toSet
      assert(got == all, s"got ${got.size} sets, expected ${all.size}")
      assert(r.all.size == got.size, "no duplicate enumeration")
    }
  }

  test("maxSized equals the union of all densest subgraphs") {
    Check.forAllGraphs(40, 3, 9) { g =>
      val r = InstanceDensest.allDensest(g, InstanceFamily.Edge)
      val (_, _, all) = BruteForce.allEdgeDensest(g)
      assert(r.maxSized.toSet == all.flatten)
    }
  }

  test("empty world: no densest subgraph (Table I convention)") {
    val g = Graph.fromEdges(4, Seq.empty)
    val r = InstanceDensest.allDensest(g, InstanceFamily.Edge)
    assert(r.all.isEmpty && r.maxSized.isEmpty && r.density == 0.0)
  }

  test("single edge: the two endpoints are the unique densest subgraph") {
    val g = Graph.fromEdges(4, Seq((1, 3)))
    val r = InstanceDensest.allDensest(g, InstanceFamily.Edge)
    assert(r.num == 1 && r.den == 2)
    assert(r.all.map(_.toSeq) == Seq(Seq(1, 3)))
  }

  test("two disjoint triangles: three densest subgraphs (each and their union)") {
    val g = Graph.fromEdges(6, Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    val r = InstanceDensest.allDensest(g, InstanceFamily.Edge)
    assert(r.density == 1.0)
    val got = r.all.map(_.toSet).toSet
    assert(got == Set(Set(0, 1, 2), Set(3, 4, 5), Set(0, 1, 2, 3, 4, 5)))
    assert(r.maxSized.toSet == Set(0, 1, 2, 3, 4, 5))
  }

  test("result cap stops enumeration and reports capped") {
    val g = Graph.fromEdges(6, Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    val r = InstanceDensest.allDensest(g, InstanceFamily.Edge, maxResults = 2)
    assert(r.capped && r.all.size == 2)
  }

  test("a family of exactly cap members is not capped") {
    val edge = Graph.fromEdges(4, Seq((1, 3)))
    val r1 = InstanceDensest.allDensest(edge, InstanceFamily.Edge, maxResults = 1)
    assert(!r1.capped && r1.all.size == 1)
    val g = Graph.fromEdges(6, Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    val r3 = InstanceDensest.allDensest(g, InstanceFamily.Edge, maxResults = 3)
    assert(!r3.capped && r3.all.size == 3)
  }

  test("paper Figure 1 worlds: densest families as in Table I") {
    // World G6 = {AB, BD}: densest is {A,B,D} (density 2/3).
    val g6 = Graph.fromEdges(4, Seq((0, 1), (1, 3)))
    assert(InstanceDensest.allDensest(g6, InstanceFamily.Edge).all.map(_.toSet) == Seq(Set(0, 1, 3)))
    // World G8 = {AB, AC, BD}: densest is {A,B,C,D} (density 3/4).
    val g8 = Graph.fromEdges(4, Seq((0, 1), (0, 2), (1, 3)))
    assert(InstanceDensest.allDensest(g8, InstanceFamily.Edge).all.map(_.toSet) == Seq(Set(0, 1, 2, 3)))
    // World G4 = {BD} only: densest is {B,D}.
    val g4 = Graph.fromEdges(4, Seq((1, 3)))
    assert(InstanceDensest.allDensest(g4, InstanceFamily.Edge).all.map(_.toSet) == Seq(Set(1, 3)))
  }
}
