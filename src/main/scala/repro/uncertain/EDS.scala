package repro.uncertain

import repro.graph.{Cliques, InstanceDensest, Pattern}

/** Expected densest subgraph (Zou [44]) and its clique/pattern extensions
  * (Appendix C) — the main baseline of §VI-B.
  *
  * By linearity of expectation the expected ψ-density of U equals
  * Σ_{embeddings inside U} Pr[embedding's edges exist] / |U| (Theorem 7),
  * i.e. a *weighted* instance-densest-subgraph problem. We solve it exactly
  * (up to the 1e-6 weight quantisation documented in DESIGN.md) with the
  * exact kernel's Dinkelbach iteration on the Algorithm 7 flow network
  * (`InstanceDensest.maxWeightedDensity`), using instance weights scaled
  * to integers.
  */
object EDS {

  private val Scale = 1000000L

  final case class Result(nodes: Set[Int], expectedDensity: Double)

  /** O(1) edge-probability lookup. */
  private final class EdgeProbs(g: UncertainGraph) {
    private val map = new java.util.HashMap[Long, java.lang.Double](g.m * 2)
    for (i <- 0 until g.m) map.put(g.edgeU(i).toLong * g.n + g.edgeV(i), g.prob(i))
    def apply(u: Int, v: Int): Double = {
      val (a, b) = if (u < v) (u, v) else (v, u)
      val r = map.get(a.toLong * g.n + b)
      if (r == null) 0.0 else r.doubleValue
    }
  }

  /** A node set of maximum weighted-instance density (scaled weights). */
  private def weightedDensest(n: Int, sets: Array[Array[Int]], weights: Array[Long], q: Int): Set[Int] = {
    val (_, _, mask) = InstanceDensest.maxWeightedDensity(n, sets, weights, q)
    (0 until n).filter(mask(_)).toSet
  }

  /** Expected edge densest subgraph [44]. */
  def edge(g: UncertainGraph): Result = {
    val sets = Array.tabulate(g.m)(i => Array(g.edgeU(i), g.edgeV(i)))
    val w = g.prob.map(p => math.round(p * Scale))
    val nodes = weightedDensest(g.n, sets, w, 2)
    Result(nodes, expectedEdgeDensity(g, nodes))
  }

  /** Expected h-clique densest subgraph (Appendix C). */
  def clique(g: UncertainGraph, h: Int): Result = {
    val ep = new EdgeProbs(g)
    val cliques = Cliques.enumerate(g.deterministic, h)
    def cliqueProb(c: Array[Int]): Double = {
      var p = 1.0
      for (i <- c.indices; j <- i + 1 until c.length) p *= ep(c(i), c(j))
      p
    }
    val w = cliques.map(c => math.round(cliqueProb(c) * Scale))
    val nodes = weightedDensest(g.n, cliques, w, h)
    val ed =
      if (nodes.isEmpty) 0.0
      else cliques.toSeq.collect { case c if c.forall(nodes.contains) => cliqueProb(c) }.sum / nodes.size
    Result(nodes, ed)
  }

  /** Expected ψ-densest subgraph (Appendix C): embedding weight is the
    * product of the probabilities of the embedding's own pattern edges
    * (Theorem 7).
    */
  def pattern(g: UncertainGraph, psi: Pattern): Result = {
    val ep = new EdgeProbs(g)
    val embs = psi.embeddings(g.deterministic)
    def embProb(edges: Array[(Int, Int)]): Double = {
      var p = 1.0
      for ((u, v) <- edges) p *= ep(u, v)
      p
    }
    val sets = embs.map(_._1)
    val w = embs.map(e => math.round(embProb(e._2) * Scale))
    val nodes = weightedDensest(g.n, sets, w, psi.numNodes)
    val ed =
      if (nodes.isEmpty) 0.0
      else embs.toSeq.collect { case (s, e) if s.forall(nodes.contains) => embProb(e) }.sum / nodes.size
    Result(nodes, ed)
  }

  /** E[ρ_e(U)] = Σ_{edges inside U} p(e) / |U| (linearity of expectation). */
  def expectedEdgeDensity(g: UncertainGraph, nodes: Set[Int]): Double =
    if (nodes.isEmpty) 0.0
    else (0 until g.m).collect {
      case i if nodes.contains(g.edgeU(i)) && nodes.contains(g.edgeV(i)) => g.prob(i)
    }.sum / nodes.size
}
