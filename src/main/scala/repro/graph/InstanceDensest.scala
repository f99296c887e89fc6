package repro.graph

/** A density notion's instances (edges, h-cliques or ψ-instances) and the
  * instance arcs they add to its density flow network — the only part of
  * the exact kernel that differs between notions. `q` is |V_ψ|, the number
  * of nodes per instance.
  */
sealed abstract class InstanceFamily(val q: Int) extends Serializable {

  /** Instance node sets of `g`. */
  def instances(g: Graph): Array[Array[Int]]

  /** The instances of `g` inside the core mask `active`, given all of
    * them. Cliques and patterns are enumerated again on the induced
    * subgraph (Algorithm 2/4 line 3); the order that yields is the order
    * Algorithm 3 enumerates the densest family in.
    */
  private[graph] def reduce(g: Graph, all: Array[Array[Int]], active: Array[Boolean]): Array[Array[Int]] =
    instances(g.inducedSubgraph(active))

  /** The instance-arc layout over the reduced instances `inst`. */
  private[graph] def layout(inst: Array[Array[Int]]): InstanceFamily.Layout
}

object InstanceFamily {

  /** Instance arcs of a flow network, built once per world. Its `numAux`
    * auxiliary nodes are numbered from `base`, after s, t and the V-nodes;
    * `id(v)` is the network node of graph node v and `b` the capacity scale.
    */
  private[graph] trait Layout {
    def numAux: Int
    def addArcs(net: FlowNetwork, id: Array[Int], base: Int, b: Long): Unit
  }

  /** Edge density: Goldberg's network, one arc pair of capacity b per edge. */
  case object Edge extends InstanceFamily(2) {
    def instances(g: Graph): Array[Array[Int]] =
      Array.tabulate(g.m)(i => Array(g.edgeU(i), g.edgeV(i)))

    override private[graph] def reduce(
        g: Graph, all: Array[Array[Int]], active: Array[Boolean]
    ): Array[Array[Int]] = all.filter(e => active(e(0)) && active(e(1)))

    private[graph] def layout(inst: Array[Array[Int]]): Layout = new Layout {
      def numAux = 0
      def addArcs(net: FlowNetwork, id: Array[Int], base: Int, b: Long): Unit =
        for (e <- inst) net.addArcPair(id(e(0)), id(e(1)), b, b)
    }
  }

  /** h-clique density: Algorithm 6's network with one node per
    * (h−1)-clique λ: λ→v (v ∈ λ) of capacity ∞, and v→λ of capacity b when
    * λ ∪ {v} is an h-clique.
    */
  final case class Clique(h: Int) extends InstanceFamily(h) {
    def instances(g: Graph): Array[Array[Int]] = Cliques.enumerate(g, h)

    private[graph] def layout(inst: Array[Array[Int]]): Layout = {
      val (lambdas, completions) = Cliques.subCliquesWithCompletions(inst)
      new Layout {
        def numAux = lambdas.length
        def addArcs(net: FlowNetwork, id: Array[Int], base: Int, b: Long): Unit =
          for (li <- lambdas.indices) {
            for (v <- lambdas(li)) net.addArc(base + li, id(v), FlowNetwork.Inf)
            for (v <- completions(li)) net.addArc(id(v), base + li, b)
          }
      }
    }
  }

  /** Pattern density: Algorithm 7's network with one node per group of
    * ψ-instances sharing a node set.
    */
  final case class Pat(psi: Pattern) extends InstanceFamily(psi.numNodes) {
    def instances(g: Graph): Array[Array[Int]] = psi.instances(g)

    private[graph] def layout(inst: Array[Array[Int]]): Layout = {
      val (groupSets, groupCounts) = Pattern.groups(inst)
      groupLayout(q, groupSets, groupCounts.map(_.toLong))
    }
  }

  /** Algorithm 7's group nodes: one per node set `sets(i)` of weight
    * `w(i)`, with v→group of capacity w·b and group→v of w·(q−1)·b.
    */
  private[graph] def groupLayout(q: Long, sets: Array[Array[Int]], w: Array[Long]): Layout = new Layout {
    def numAux = sets.length
    def addArcs(net: FlowNetwork, id: Array[Int], base: Int, b: Long): Unit =
      for (gi <- sets.indices; v <- sets(gi)) {
        net.addArc(id(v), base + gi, w(gi) * b)
        net.addArc(base + gi, id(v), w(gi) * (q - 1) * b)
      }
  }
}

/** Exact densest subgraphs of a deterministic graph under any instance
  * family: edges (§III-A, Goldberg / [45]), h-cliques (Algorithms 2/3/6) and
  * patterns (Algorithms 4/7). One pipeline serves all three:
  *
  *   peel → ⌈ρ̃⌉-core → Dinkelbach → final max flow → residual SCCs →
  *   Algorithm 3 (`DensestEnum`).
  *
  * The optimum ρ* comes from Dinkelbach iteration over the enumeration
  * network (in place of the convex program of [56] — see DESIGN.md §4; both
  * are exact): by Lemmas 3 and 11 the min cut at guess α = a/b is below
  * q·μ·b (μ the instance count, or the total weight of weighted instances)
  * iff a subgraph denser than α exists, and the cut's source side is one.
  * The expected densest subgraph baseline (`maxWeightedDensity`) shares
  * that loop.
  *
  * Convention (matching Table I): a world without instances has no densest
  * subgraph — every set ties at density 0, which carries no signal, and the
  * paper credits no node set in such worlds.
  */
object InstanceDensest {

  /** The densest family (possibly capped), its union `maxSized`, and the
    * optimum density ρ* = num/den as a reduced fraction.
    */
  final case class Result(
      num: Long,
      den: Long,
      all: Seq[Array[Int]],
      capped: Boolean,
      maxSized: Array[Int],
  ) {
    def density: Double = if (den == 0) 0.0 else num.toDouble / den
  }

  private def gcd(a: Long, b: Long): Long = if (b == 0) math.max(a, 1) else gcd(b, a % b)

  /** The density flow networks over weighted instances `inst` (q nodes
    * each) on the nodes of `active`. Network nodes: 0 = s, 1 = t, then the
    * active nodes in id order, then the layout's nodes.
    */
  private final class Networks(
      n: Int,
      q: Long,
      active: Array[Boolean],
      inst: Array[Array[Int]],
      weight: Array[Long],
      layout: InstanceFamily.Layout,
  ) {
    private val nodes = (0 until n).filter(active).toArray
    private val id = Array.fill(n)(-1)
    for (i <- nodes.indices) id(nodes(i)) = i + 2
    private val deg = new Array[Long](n)
    for (i <- inst.indices; v <- inst(i)) deg(v) += weight(i)

    /** The network at α = a/b, capacities scaled by b: s→v of deg(v)·b,
      * v→t of q·a, then the layout's instance arcs.
      */
    def network(a: Long, b: Long): FlowNetwork = {
      val net = new FlowNetwork(nodes.length + 2 + layout.numAux)
      for (v <- nodes) {
        net.addArc(0, id(v), deg(v) * b)
        net.addArc(id(v), 1, q * a)
      }
      layout.addArcs(net, id, nodes.length + 2, b)
      net
    }

    /** Graph node of a network node, or -1 for s, t and layout nodes. */
    def vertex(nid: Int): Int = if (nid >= 2 && nid < nodes.length + 2) nodes(nid - 2) else -1

    /** Total weight of the instances inside `mask`. */
    def weightInside(mask: Array[Boolean]): Long = {
      var w = 0L
      for (i <- inst.indices; if inst(i).forall(mask(_))) w += weight(i)
      w
    }

    /** ρ* as a reduced fraction with one witness, by Dinkelbach iteration
      * from the density a/b of `witness`.
      */
    def densest(a0: Long, b0: Long, witness: => Array[Boolean]): (Long, Long, Array[Boolean]) = {
      val total = weight.sum
      var a = a0; var b = b0
      var best: Array[Boolean] = null
      var improved = true
      while (improved) {
        val gg = gcd(a, b)
        a /= gg; b /= gg
        val net = network(a, b)
        if (net.maxFlow(0, 1) < q * total * b) {
          val cut = net.minCutSourceSide(0)
          val v1 = new Array[Boolean](n)
          for (i <- nodes.indices; if cut(i + 2)) v1(nodes(i)) = true
          val w1 = weightInside(v1)
          val n1 = v1.count(identity).toLong
          require(n1 > 0 && w1 * b > a * n1, "Dinkelbach step must strictly improve")
          a = w1; b = n1; best = v1
        } else improved = false
      }
      (a, b, if (best == null) witness else best)
    }
  }

  /** The networks of a world's ⌈ρ̃⌉-core (Algorithms 2/4 lines 1–3), with
    * ρ* and one witness (line 4), Dinkelbach starting from the peeling
    * bound ρ̃.
    */
  private def density(
      g: Graph, f: InstanceFamily, all: Array[Array[Int]]
  ): (Networks, (Long, Long, Array[Boolean])) = {
    val peel = HyperPeeling.peel(g.n, all)
    val (a, b) = peel.bestDensity
    val active = peel.coreAtLeast((a + b - 1) / b)
    val inst = f.reduce(g, all, active)
    val nets = new Networks(g.n, f.q, active, inst, Array.fill(inst.length)(1L), f.layout(inst))
    (nets, nets.densest(a, b, peel.bestSuffixNodes))
  }

  /** Exact maximum density ρ* of any subgraph of `g`, with one witness
    * (an all-false mask when `g` has no instance).
    */
  def maxDensity(g: Graph, f: InstanceFamily): (Long, Long, Array[Boolean]) = {
    val all = f.instances(g)
    if (all.isEmpty) (0L, 1L, new Array[Boolean](g.n)) else density(g, f, all)._2
  }

  /** All densest subgraphs of `g`, at most `maxResults` of them, and the
    * maximum-sized one (Algorithm 1 line 5, Algorithms 2 and 4).
    */
  def allDensest(g: Graph, f: InstanceFamily, maxResults: Int = Int.MaxValue): Result = {
    val all = f.instances(g)
    if (all.isEmpty) return Result(0, 1, Seq.empty, capped = false, Array.empty)
    val (nets, (a, b, _)) = density(g, f, all)
    val net = nets.network(a, b)
    net.maxFlow(0, 1)
    val e = DensestEnum.enumerate(net.residualAdjacency, 0, 1, nets.vertex, maxResults)
    Result(a, b, e.all, e.capped, e.maxSized)
  }

  /** Exact maximum density of weighted instances: node sets `sets` of q
    * nodes each, weights `weights`, on nodes `0 until n` — the expected
    * densest subgraph problem of [44] and Appendix C. One Algorithm 7 group
    * node per positive-weight set; Dinkelbach starts from all nodes those
    * sets touch. Returns ρ* as a reduced fraction of weight per node, with
    * one witness (all-false without positive weight).
    */
  def maxWeightedDensity(
      n: Int, sets: Array[Array[Int]], weights: Array[Long], q: Int
  ): (Long, Long, Array[Boolean]) = {
    val keep = sets.indices.filter(weights(_) > 0).toArray
    if (keep.isEmpty) return (0L, 1L, new Array[Boolean](n))
    val ss = keep.map(sets)
    val ww = keep.map(weights)
    val active = new Array[Boolean](n)
    for (s <- ss; v <- s) active(v) = true
    val nets = new Networks(n, q, active, ss, ww, InstanceFamily.groupLayout(q, ss, ww))
    nets.densest(ww.sum, active.count(identity), active)
  }
}

/** Exact maximum edge density, as the edge family's density phase. */
object EdgeDensest {
  def maxDensity(g: Graph): (Long, Long, Array[Boolean]) = InstanceDensest.maxDensity(g, InstanceFamily.Edge)
}
