package repro.graph

import scala.collection.mutable

/** Shared enumeration step of Algorithms 2/3/4: given the residual graph of
  * the density flow network under a maximum flow (at α = the exact optimum
  * density), enumerate every densest subgraph exactly once by exploring the
  * independent component sets of the condensation DAG (Corollary 2).
  */
object DensestEnum {

  /** Result of an all-densest enumeration.
    *
    * @param all       node-id sets of all densest subgraphs (may be capped)
    * @param capped    true iff the family has more than `maxResults` members,
    *                  so `all` holds only the first `maxResults`
    * @param maxSized  the maximum-sized densest subgraph = union of all
    *                  densest subgraphs ([58]; Algorithm 5 line 4)
    */
  final case class Enumerated(all: Seq[Array[Int]], capped: Boolean, maxSized: Array[Int])

  /** @param residual  residual adjacency of the flow network (positive arcs)
    * @param s, t      source / sink network-node ids
    * @param vNodeOf   for a network node id, the graph node id if it is a
    *                  V-node, else -1 (Λ / group nodes)
    * @param maxResults stop after this many subgraphs (enumeration count can
    *                  be exponential — Table VIII measures exactly this)
    */
  def enumerate(
      residual: Array[Array[Int]],
      s: Int,
      t: Int,
      vNodeOf: Int => Int,
      maxResults: Int,
  ): Enumerated = {
    val (comp, nComp) = SCC.components(residual)
    val trivial = Set(comp(s), comp(t))

    // Re-index non-trivial components densely.
    val ids = (0 until nComp).filterNot(trivial.contains).toArray
    val newId = Array.fill(nComp)(-1)
    for (i <- ids.indices) newId(ids(i)) = i
    val k = ids.length

    // V-node members per non-trivial component.
    val vNodes = Array.fill(k)(mutable.ArrayBuilder.make[Int])
    for (u <- residual.indices; if newId(comp(u)) >= 0) {
      val g = vNodeOf(u)
      if (g >= 0) vNodes(newId(comp(u))) += g
    }
    val compV = vNodes.map(_.result().sorted)

    // Condensation restricted to non-trivial components (Definition 9
    // defines des/anc over non-trivial components only).
    val dagOut = Array.fill(k)(mutable.HashSet.empty[Int])
    for (u <- residual.indices; v <- residual(u)) {
      val cu = newId(comp(u)); val cv = newId(comp(v))
      if (cu >= 0 && cv >= 0 && cu != cv) dagOut(cu) += cv
    }
    val dag = dagOut.map(_.toArray)
    val des = SCC.descendants(dag)
    val anc = {
      val a = Array.fill(k)(new java.util.BitSet(k))
      for (c <- 0 until k) {
        val dc = des(c)
        var d = dc.nextSetBit(0)
        while (d >= 0) { a(d).set(c); d = dc.nextSetBit(d + 1) }
      }
      a
    }

    val results = mutable.ArrayBuffer.empty[Array[Int]]
    var capped = false

    def emit(closure: java.util.BitSet): Unit =
      if (results.length == maxResults) capped = true
      else {
        val b = mutable.ArrayBuilder.make[Int]
        var c = closure.nextSetBit(0)
        while (c >= 0) { b ++= compV(c); c = closure.nextSetBit(c + 1) }
        results += b.result().sorted
      }

    // Algorithm 3. `c1Closure` maintains C1 ∪ des(C1); candidates are only
    // components with V-nodes (line 5); each recursion branch fixes one
    // candidate in and continues without it and its des/anc (independence).
    def rec(c1Closure: java.util.BitSet, c1NonEmpty: Boolean, c2: List[Int]): Unit = {
      if (capped) return
      if (c1NonEmpty) emit(c1Closure)
      var rest = c2
      while (rest.nonEmpty && !capped) {
        val c = rest.head
        rest = rest.tail
        val closure = c1Closure.clone().asInstanceOf[java.util.BitSet]
        closure.set(c)
        closure.or(des(c))
        val remaining = rest.filter(x => !des(c).get(x) && !anc(c).get(x))
        rec(closure, c1NonEmpty = true, remaining)
      }
    }

    val candidates = (0 until k).filter(compV(_).nonEmpty).toList
    rec(new java.util.BitSet(k), c1NonEmpty = false, candidates)

    // Maximum-sized densest subgraph: every non-trivial component with a
    // V-node forms a singleton independent set, so the union of all densest
    // subgraphs is simply all V-nodes outside scc(s) and scc(t).
    val maxSized = compV.toSeq.flatten.distinct.sorted.toArray
    Enumerated(results.toSeq, capped, maxSized)
  }
}
