package repro.perfbench

import repro.core.DensityNotion

final case class Metric(name: String, value: Double, unit: String, note: String)

/** One traced query: wall time, its Spark cost, the part of its wall that
  * no Spark job covered, and JVM GC time during it.
  */
final case class TracedQuery(ms: Double, cost: SparkCost, driverMs: Double, gcMs: Double)

/** The metrics the benchmark reports, by name and unit. The names and units
  * are the ones `BENCHMARK.json` lists.
  */
object Report {

  /** End-to-end metrics of the untraced timed loop. */
  def endToEnd(ms: Seq[Double], wallS: Double, worlds: Long, setupS: Double): Seq[Metric] = {
    val (tailP, tailV) = Stats.tail(ms).getOrElse(
      throw new IllegalStateException(s"${ms.size} queries are too few for a tail percentile"))
    Seq(
      Metric("query_ms.p50", Stats.median(ms), "ms", s"median of ${ms.size} queries"),
      Metric("query_ms.tail", tailV, "ms", s"p$tailP of ${ms.size} queries"),
      Metric("worlds_per_s", worlds * ms.size / wallS, "1/s", f"$worlds worlds x ${ms.size} queries / $wallS%.2f s"),
      Metric("setup_s", setupS, "s", s"median of ${Main.SetupReps} set-ups"),
    )
  }

  /** Per-layer metrics of a traced run: per-world means from the replay,
    * per-query means from the traced queries. Metrics of a layer the
    * workload does not use read 0.
    */
  def perLayer(
      w: Workload,
      t: Replay.Totals,
      traced: Seq[TracedQuery],
      plainMs: Seq[Double],
      heapPeakMb: Double,
      cores: Int,
  ): Seq[Metric] = {
    val n = math.max(1L, t.worlds).toDouble
    def us(ns: Long) = ns / 1e3 / n
    def per(x: Long) = x / n
    val isEdge = w.notion == DensityNotion.Edge
    val edgeOnly = if (isEdge) "" else "; n/a: not an edge workload"
    val ndsOnly = if (w.entry == Entry.Nds) "" else "; n/a: not an NDS workload"
    def mean(f: TracedQuery => Double) = Stats.mean(traced.map(f))
    Seq(
      Metric("uncertain.sample_us", us(t.sampleNs), "us", "per world"),
      Metric("uncertain.world_us", us(t.worldNs), "us", "per world"),
      Metric("uncertain.edges_per_world", per(t.edges), "count", "per world"),
      Metric("graph.instances_us", us(t.instancesNs), "us", "probe, per world"),
      Metric("graph.peel_us", us(t.peelNs), "us", "probe, per world"),
      Metric("graph.maxdensity_us", if (isEdge) us(t.maxDensityNs) else 0.0, "us", "probe, per world" + edgeOnly),
      Metric("graph.alldensest_us", us(t.allDensestNs), "us", s"per world at cap ${w.cap}"),
      Metric("graph.after_density_us", if (isEdge) us(t.allDensestNs - t.maxDensityNs) else 0.0, "us",
        "alldensest - maxdensity" + edgeOnly),
      Metric("graph.instances_per_world", per(t.instances), "count", "per world"),
      Metric("graph.core_nodes_per_world", per(t.coreNodes), "count", "ceil(rho~)-core size, per world"),
      Metric("graph.densest_per_world", per(t.densest), "count", "per world"),
      Metric("graph.capped_worlds", t.capped.toDouble, "count", s"of ${t.worlds} worlds; flagged whenever the cap is reached"),
      Metric("graph.empty_worlds", t.empty.toDouble, "count", s"of ${t.worlds} worlds"),
      Metric("core.jobs", mean(_.cost.jobs.toDouble), "count", s"per query, mean of ${traced.size} traced"),
      Metric("core.tasks", mean(_.cost.tasks.toDouble), "count", "per query"),
      Metric("core.task_busy_ms", mean(_.cost.taskBusyMs), "ms", "per query"),
      Metric("core.shuffle_bytes", mean(_.cost.shuffleBytes), "bytes", "per query"),
      Metric("core.fanout_skew", mean(_.cost.fanoutSkew), "ratio", "slowest / mean task of the world fan-out stage"),
      Metric("core.cpu_busy_frac", mean(q => q.cost.taskBusyMs / (q.ms * cores)), "ratio", s"task busy / (wall x $cores cores)"),
      Metric("core.driver_ms", mean(_.driverMs), "ms", "query wall outside any Spark job"),
      Metric("core.candidate_rows", t.candidateRows.toDouble, "count", "rows the fan-out emits for the replayed query"),
      Metric("core.distinct_candidates", t.distinctCandidates.toDouble, "count", "distinct node sets among them"),
      Metric("mining.tfp_ms", t.tfpNs / 1e6, "ms", "per query" + ndsOnly),
      Metric("mining.transactions", t.transactions.toDouble, "count", "non-empty transactions" + ndsOnly),
      Metric("mining.items", t.items.toDouble, "count", "distinct items" + ndsOnly),
      Metric("jvm.gc_ms", mean(_.gcMs), "ms", "per traced query"),
      Metric("jvm.heap_peak_mb", heapPeakMb, "MB", "heap pools' peak over the traced phase"),
      Metric("trace.overhead_frac", Stats.median(traced.map(_.ms)) / Stats.median(plainMs) - 1, "ratio",
        s"traced median / untraced median - 1 (${traced.size} / ${plainMs.size} queries)"),
    )
  }
}

/** Minimal JSON rendering for the result lines. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
  def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString
  def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")
}
