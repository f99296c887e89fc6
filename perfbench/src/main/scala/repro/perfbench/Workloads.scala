package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{DensityNotion, ExactMPDS, MPDS, NDS}
import repro.data.Datasets
import repro.uncertain.UncertainGraph

/** Which public entry point a workload queries. */
sealed trait Entry { def call: String }
object Entry {
  case object Mpds extends Entry { val call = "MPDS.run" }
  case object Nds extends Entry { val call = "NDS.run" }
  case object Exact extends Entry { val call = "ExactMPDS.topK" }
}

/** One fixed top-k query shape over one generated uncertain graph.
  *
  * The workload seed `s` drives both the graph generator and the query
  * seeds. Seed 0 is the default: it reproduces the generator seeds the
  * table benches use, and its answers are stored as reference answers.
  * Every other seed shifts the generator seed by `s` · 1 000 003.
  */
final case class Workload(
    name: String,
    why: String,
    entry: Entry,
    dataset: String,
    notion: DensityNotion,
    k: Int,
    theta: Int,
    cap: Int,
    lm: Int,
    querySeedBase: Long,
    graph: Long => UncertainGraph,
) {

  /** A run cycles through this many query seeds. */
  def queriesPerCycle: Int = if (entry == Entry.Exact) 1 else 4

  def querySeed(seed: Long, q: Int): Long = querySeedBase + q + Workloads.Stride * seed

  def worldsPerQuery(g: UncertainGraph): Long = if (entry == Entry.Exact) 1L << g.m else theta.toLong

  /** Sampled answers are frequencies over θ worlds; exact ones are not. */
  def scoreDenominator: Option[Int] = if (entry == Entry.Exact) None else Some(theta)

  /** One query through the workload's public entry point. */
  def query(spark: SparkSession, g: UncertainGraph, seed: Long, q: Int): Answer = entry match {
    case Entry.Mpds =>
      val r = MPDS.run(spark, g, notion, k, theta, seed = querySeed(seed, q), capPerWorld = cap)
      Answer(r.topK.map(c => Answer.Entry(c.nodes, c.tauHat)))
    case Entry.Nds =>
      val r = NDS.run(spark, g, notion, k, lm, theta, seed = querySeed(seed, q))
      Answer(r.topK.map(c => Answer.Entry(c.nodes, c.gammaHat)))
    case Entry.Exact =>
      Answer(ExactMPDS.topK(spark, g, notion, k).map(c => Answer.Entry(c.nodes, c.tau)))
  }
}

object Workloads {

  val Stride = 1000003L

  private def genSeed(base: Long, seed: Long): Long = base + Stride * seed

  /** ER(7, 0.7) conditioned on m = 14: the first generator seed from the
    * workload's that yields 14 edges. The exact query enumerates 2^m worlds,
    * so an unconditioned m would change the work per query by powers of two
    * from seed to seed.
    */
  val Er7Edges = 14
  private def er7(seed: Long): UncertainGraph =
    Iterator.from(0).map(j => Datasets.er(7, 0.7, genSeed(72L, seed) + j)).find(_.m == Er7Edges).get

  val all: Seq[Workload] = Seq(
    Workload(
      "mpds-intellab-3clique",
      "clique-network Dinkelbach flows in allDensest are most of each world; sampling and aggregation are negligible",
      Entry.Mpds, "IntelLab-like", DensityNotion.Clique(3), k = 10, theta = 128, cap = 100000, lm = 0,
      querySeedBase = 601L, s => Datasets.intelLabLike(genSeed(7L, s))),
    Workload(
      "nds-friendster-edge",
      "per-world cost scales with the whole graph's n and m, not the few edges present; no shuffle; TFP on the driver",
      Entry.Nds, "Friendster-like", DensityNotion.Edge, k = 10, theta = 64, cap = 1, lm = 2,
      querySeedBase = 603L, s => Datasets.friendsterLike(genSeed(23L, s))),
    Workload(
      "mpds-lastfm-edge",
      "heavy ties: many densest sets per world, so Algorithm 3 enumeration and string-keyed aggregation do the work",
      Entry.Mpds, "LastFM-like", DensityNotion.Edge, k = 10, theta = 128, cap = 4096, lm = 0,
      querySeedBase = 403L, s => Datasets.lastFmLike(genSeed(11L, s))),
    Workload(
      "exact-er7-edge",
      "2^14 tiny worlds: fixed per-call overhead and the Spark fan-out over world indices dominate; exact answer",
      Entry.Exact, "ER_7", DensityNotion.Edge, k = 10, theta = 0, cap = Int.MaxValue, lm = 0,
      querySeedBase = 0L, er7),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; one of ${all.map(_.name).mkString(", ")}"))
}
