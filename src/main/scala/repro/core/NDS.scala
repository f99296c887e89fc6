package repro.core

import org.apache.spark.sql.SparkSession
import repro.mining.TFP
import repro.uncertain.{UncertainGraph, WorldSampler}

/** Algorithm 5 — top-k Nucleus Densest Subgraphs: sample θ worlds, collect
  * each world's *maximum-sized* densest subgraph (the union of all densest
  * subgraphs, footnote 5 / [58]) as a transaction, then mine the top-k
  * closed node sets of size >= l_m with TFP.
  *
  * The sampling fan-out runs across the cluster; transactions (θ node sets)
  * are collected to the driver for the itemset-mining step, exactly as the
  * paper runs TFP on the candidate set CV.
  */
object NDS {

  final case class Nucleus(nodes: Seq[Int], gammaHat: Double)

  final case class Result(
      topK: Seq[Nucleus],
      transactions: Seq[Set[Int]],
      elapsedMillis: Long,
  )

  /** The per-world candidate (Line 4). With `heuristic = true`, the
    * §III-C core-based substitute: the union of the innermost core and all
    * denser peel suffixes (they are nested, so this is the largest of them)
    * stands in for the maximum-sized densest subgraph.
    */
  def transactions(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
      heuristic: Boolean = false,
  ): Seq[Set[Int]] = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(g)
    spark
      .range(theta.toLong)
      .as[Long]
      .map { i =>
        val ug = bc.value
        val world = ug.world(sampler.worldForIndex(ug, i, theta, seed))
        val cand: Array[Int] =
          if (heuristic) {
            val subs = notion.heuristicDense(world)
            if (subs.isEmpty) Array.empty[Int] else subs.flatten.distinct.sorted.toArray
          } else notion.allDensest(world, 1).maxSized
        cand
      }
      .collect()
      .toSeq
      .map(_.toSet)
  }

  /** Full Algorithm 5. */
  def run(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      k: Int,
      lm: Int,
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
      heuristic: Boolean = false,
  ): Result = {
    val t0 = System.nanoTime()
    val tx = transactions(spark, g, notion, theta, sampler, seed, heuristic)
    val nonEmpty = tx.filter(_.nonEmpty)
    val top = TFP.topK(nonEmpty, k, lm).map { c =>
      Nucleus(c.items.toSeq.sorted, c.support.toDouble / theta)
    }
    Result(top, tx, (System.nanoTime() - t0) / 1000000L)
  }
}
