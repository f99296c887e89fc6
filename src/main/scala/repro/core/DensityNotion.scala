package repro.core

import repro.graph._

/** A density notion ρ (§II-A) together with the per-world subroutines
  * Algorithm 1/5 need: enumerate all densest subgraphs, the maximum-sized
  * densest subgraph, the optimal density, and the density of a given node
  * set — plus the §III-C heuristic substitute.
  */
sealed trait DensityNotion extends Serializable {
  def name: String

  /** The notion's instances and flow-network layout for the exact kernel. */
  def family: InstanceFamily

  /** Instance node sets under this notion (edges / h-cliques / ψ-instances). */
  final def instances(g: Graph): Array[Array[Int]] = family.instances(g)

  /** All densest subgraphs (at most `cap`) + maximum-sized one + exact
    * optimum density.
    */
  final def allDensest(g: Graph, cap: Int): InstanceDensest.Result =
    InstanceDensest.allDensest(g, family, cap)

  /** Exact optimum density ρ* as a reduced fraction ((0, 1) without
    * instances) — the kernel's density phase, without the final flow and
    * the enumeration.
    */
  final def maxDensity(g: Graph): (Long, Long) = {
    val (a, b, _) = InstanceDensest.maxDensity(g, family)
    (a, b)
  }

  /** Density of `nodes` inside world `g`, as an exact rational. */
  final def densityOf(g: Graph, nodes: Set[Int]): (Long, Long) = {
    if (nodes.isEmpty) return (0L, 1L)
    val cnt = instances(g).count(_.forall(nodes.contains)).toLong
    (cnt, nodes.size.toLong)
  }

  /** §III-C heuristic: reasonably dense subgraphs from core decomposition
    * (the innermost core and all denser peel suffixes).
    */
  final def heuristicDense(g: Graph): Seq[Array[Int]] = {
    val inst = instances(g)
    if (inst.isEmpty) return Seq.empty
    val pr = HyperPeeling.peel(g.n, inst)
    pr.heuristicDenseSubgraphs.map(mask => (0 until g.n).filter(mask(_)).toArray)
  }
}

object DensityNotion {

  case object Edge extends DensityNotion {
    val name = "edge"
    val family: InstanceFamily = InstanceFamily.Edge
  }

  final case class Clique(h: Int) extends DensityNotion {
    val name = s"$h-clique"
    val family: InstanceFamily = InstanceFamily.Clique(h)
  }

  final case class Pat(psi: Pattern) extends DensityNotion {
    val name = psi.name
    val family: InstanceFamily = InstanceFamily.Pat(psi)
  }
}
