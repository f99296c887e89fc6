package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.uncertain.{UncertainGraph, WorldSampler}

/** Algorithm 1 — sampling-based top-k MPDS estimation, as a Spark dataflow:
  *
  *   seeds (0..θ)  →  per-world all-densest node sets (task-local flow
  *   computation)  →  DataFrame[(world, nodeSet)]  →  groupBy(nodeSet)
  *   count / θ  =  τ̂  →  top-k.
  *
  * Worlds are independent, so the sampling fan-out parallelises perfectly;
  * the candidate aggregation is Catalyst-executed and oracle-checked.
  */
object MPDS {

  /** One candidate node set with its estimated densest subgraph probability. */
  final case class Candidate(nodes: Seq[Int], tauHat: Double)

  final case class Result(
      topK: Seq[Candidate],
      numCandidates: Long,
      elapsedMillis: Long,
  )

  /** DataFrame of (world id, node-set string) pairs — one row per densest
    * subgraph per sampled world (Line 5-7 of Algorithm 1). With
    * `allPerWorld = false` only one uniformly chosen densest subgraph per
    * world is kept (the ablation of Table IX). With `heuristic = true` the
    * §III-C core-based subgraphs substitute for the exact densest family.
    */
  def candidateSets(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
      allPerWorld: Boolean = true,
      heuristic: Boolean = false,
      capPerWorld: Int = 100000,
  ): DataFrame = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(g)
    spark
      .range(theta.toLong)
      .as[Long]
      .flatMap { i =>
        val ug = bc.value
        val world = ug.world(sampler.worldForIndex(ug, i, theta, seed))
        val sets: Seq[Array[Int]] =
          if (heuristic) notion.heuristicDense(world)
          else notion.allDensest(world, capPerWorld).all
        val chosen =
          if (allPerWorld || sets.isEmpty) sets
          else Seq(sets(repro.uncertain.Rnd.forWorld(seed ^ 0x5DEECE66DL, i).nextInt(sets.length)))
        chosen.map(s => (i, s.mkString(",")))
      }
      .toDF("world", "nodeSet")
  }

  /** Estimated τ̂ per candidate node set: frequency over θ worlds. */
  def tauHatDF(candidates: DataFrame, theta: Int): DataFrame =
    candidates
      .groupBy("nodeSet")
      .agg(count(lit(1)).as("freq"))
      .withColumn("tauHat", col("freq") / lit(theta.toDouble))

  /** Full Algorithm 1: top-k node sets by τ̂. */
  def run(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      k: Int,
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
      allPerWorld: Boolean = true,
      heuristic: Boolean = false,
      capPerWorld: Int = 100000,
  ): Result = {
    val t0 = System.nanoTime()
    val cands = candidateSets(spark, g, notion, theta, sampler, seed, allPerWorld, heuristic, capPerWorld)
    val tau = tauHatDF(cands, theta).cache()
    val top = tau
      .orderBy(desc("tauHat"), asc("nodeSet"))
      .limit(k)
      .collect()
      .map(r => Candidate(r.getString(0).split(",").filter(_.nonEmpty).map(_.toInt).toSeq,
        r.getDouble(2)))
      .toSeq
    val nCand = tau.count()
    tau.unpersist()
    Result(top, nCand, (System.nanoTime() - t0) / 1000000L)
  }

  /** Per-world number of densest subgraphs (Table VIII): DataFrame of
    * (world, numDensest).
    */
  def worldStats(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
      capPerWorld: Int = 100000,
  ): DataFrame = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(g)
    spark
      .range(theta.toLong)
      .as[Long]
      .map { i =>
        val ug = bc.value
        val world = ug.world(sampler.worldForIndex(ug, i, theta, seed))
        (i, notion.allDensest(world, capPerWorld).all.size.toLong)
      }
      .toDF("world", "numDensest")
  }

  /** Estimate τ(U) for given node sets: the fraction of sampled worlds in
    * which U's induced density equals the world's optimum (and is > 0).
    * Used to score baseline subgraphs (EDS / cores / trusses / DDS) in
    * Tables IV and VII.
    */
  def estimateTau(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      sets: Seq[Set[Int]],
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
  ): Seq[Double] = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast((g, sets))
    val hits = spark
      .range(theta.toLong)
      .as[Long]
      .map { i =>
        val (ug, ss) = bc.value
        val world = ug.world(sampler.worldForIndex(ug, i, theta, seed))
        val (optNum, optDen) = notion.maxDensity(world)
        ss.map { u =>
          val (num, den) = notion.densityOf(world, u)
          if (num > 0 && num * optDen == optNum * den) 1L else 0L
        }.toArray
      }
      .collect()
    sets.indices.map(j => hits.map(_(j)).sum.toDouble / theta)
  }

  /** Estimate γ(U): fraction of worlds whose maximum-sized densest subgraph
    * contains U (Tables III and XI/XII quality columns).
    */
  def estimateGamma(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      sets: Seq[Set[Int]],
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
  ): Seq[Double] = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast((g, sets))
    val hits = spark
      .range(theta.toLong)
      .as[Long]
      .map { i =>
        val (ug, ss) = bc.value
        val world = ug.world(sampler.worldForIndex(ug, i, theta, seed))
        val ms = notion.allDensest(world, 1).maxSized.toSet
        ss.map(u => if (u.nonEmpty && u.subsetOf(ms)) 1L else 0L).toArray
      }
      .collect()
    sets.indices.map(j => hits.map(_(j)).sum.toDouble / theta)
  }
}
