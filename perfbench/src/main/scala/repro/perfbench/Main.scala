package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.uncertain.UncertainGraph
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

/** The layered query benchmark. One client sends one top-k query at a time
  * (a closed loop) through a workload's public entry point on Spark
  * `local[N]`, checks every answer, and prints the metrics by name and unit.
  * The last line of standard output is the JSON result.
  *
  * With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
  * interleaves untraced and traced queries (a Spark listener plus spans
  * around each entry call), then replays one query's worlds sequentially on
  * the driver to time each layer, and reports the per-layer metrics.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
  *        [--reference FILE] [--write-reference] [--commit ID] [--source-digest HEX]
  */
object Main {

  /** Spark `local[N]`: N is the machine's cores, at most this many. */
  val MaxCores = 4
  /** Two shuffle partitions per core: the aggregation stages of one query
    * then cost a few tasks per core instead of Spark's default 200.
    */
  val ShufflePartitions = 2 * MaxCores
  /** Set-up repetitions in one run; setup_s is their median. */
  val SetupReps = 5
  /** Warm-up runs at least this many queries and at least this share of
    * the measured time. In a fresh JVM the first query is 10-15x slower than
    * a warm one, and query times keep drifting down for about ten more.
    */
  val MinWarmQueries = 10
  val WarmShare = 0.5
  /** The timed loop runs at least this many queries, so that the tail
    * percentile (≥ 10 samples beyond it) is at least p60.
    */
  val MinTimedQueries = 25

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      workDir: Path,
      reference: Option[Path],
      writeReference: Boolean,
      commit: String,
      sourceDigest: String,
  )

  def parse(argv: Seq[String]): Args = {
    val flags = Set("--write-reference")
    def go(rest: List[String], acc: Map[String, String]): Map[String, String] = rest match {
      case f :: tail if flags(f) => go(tail, acc + (f -> "true"))
      case k :: v :: tail if k.startsWith("--") => go(tail, acc + (k -> v))
      case Nil => acc
      case other => throw new IllegalArgumentException(s"cannot parse arguments at: ${other.mkString(" ")}")
    }
    val m = go(argv.toList, Map.empty)
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    Args(
      workload = need("--workload"),
      seed = need("--seed").toLong,
      seconds = need("--seconds").toInt,
      trace = need("--trace") == "1",
      workDir = Paths.get(need("--work-dir")).toAbsolutePath,
      reference = m.get("--reference").map(Paths.get(_)),
      writeReference = m.contains("--write-reference"),
      commit = m.getOrElse("--commit", "unknown"),
      sourceDigest = m.getOrElse("--source-digest", "unknown"),
    )
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv.toSeq)
    val w = Workloads.byName(a.workload)
    val bench = new Bench(a, w)
    try bench.run() finally bench.stop()
  }
}

/** One benchmark run of one workload. */
final class Bench(a: Main.Args, w: Workload) {
  import Main._

  private val cores = math.min(MaxCores, Runtime.getRuntime.availableProcessors)
  private val spans = new Spans
  private var spark: SparkSession = _
  private var g: UncertainGraph = _
  private var attempted = 0
  private var failed = 0
  private val problems = mutable.ArrayBuffer.empty[String]
  private val lastAnswer = mutable.HashMap.empty[Int, Answer]
  private var samplesMs = Seq.empty[Double]
  private val allMs = mutable.ArrayBuffer.empty[Double]
  private val reference: Map[(String, Int), Answer] =
    if (a.writeReference) Map.empty else a.reference.map(Answers.readReference).getOrElse(Map.empty)

  private def startSpark(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${w.name}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", a.workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", a.workDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** SparkSession start, input generation and broadcast: everything before
    * the first warm-up query. Returns seconds.
    */
  private def setUp(): Double = {
    val t0 = System.nanoTime()
    spark = startSpark()
    g = w.graph(a.seed)
    // The entry points broadcast the graph again on every call. This one
    // broadcast puts the cost of shipping the input into setup_s.
    val bc = spark.sparkContext.broadcast(g)
    bc.destroy()
    (System.nanoTime() - t0) / 1e9
  }

  def stop(): Unit = if (spark != null) { spark.stop(); spark = null }

  /** Runs query `q`, checks its answer and returns its wall time in ms. */
  private def query(q: Int): Double = {
    attempted += 1
    val t0 = System.nanoTime()
    val answer = Try(w.query(spark, g, a.seed, q))
    val ms = (System.nanoTime() - t0) / 1e6
    allMs += ms
    val found = answer match {
      case Success(ans) => lastAnswer(q) = ans; check(q, ans)
      case Failure(e) => Seq(s"threw $e")
    }
    if (found.nonEmpty) { failed += 1; problems ++= found.map(p => s"query $q: $p") }
    ms
  }

  private def check(q: Int, ans: Answer): Seq[String] = {
    val structural = Answers.structural(ans, w.k, w.scoreDenominator)
    val vsReference =
      if (a.seed != 0 || a.writeReference) None
      else reference.get((w.name, q)) match {
        case None => Some(s"no reference answer for ${w.name} query $q")
        case Some(ref) => Answers.agree(ans, ref, w.k).map(r => s"differs from reference: $r")
      }
    structural ++ vsReference
  }

  private def loopFor(seconds: Double, minQueries: Int, first: Int)(body: Int => Unit): Int = {
    val t0 = System.nanoTime()
    var i = 0
    while (i < minQueries || System.nanoTime() - t0 < seconds * 1e9) { body(first + i); i += 1 }
    first + i
  }

  private def cycle(i: Int): Int = i % w.queriesPerCycle

  /** Wall time of each phase of the run, for the report. */
  private val phases = mutable.ArrayBuffer.empty[String]
  private def phase[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    val before = attempted
    val r = body
    phases += f"$name ${(System.nanoTime() - t0) / 1e9}%.1f s (${attempted - before} queries)"
    r
  }

  def run(): Unit = {
    phases += f"jvm start ${java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.1f s"
    val setups = phase("set-ups") {
      (1 to SetupReps).map { r =>
        val s = setUp()
        if (r < SetupReps) stop()
        s
      }
    }
    val setupS = Stats.median(setups)
    val worlds = w.worldsPerQuery(g)

    if (a.writeReference) { writeReference(); return }

    val next = phase("warm-up")(loopFor(a.seconds * WarmShare, MinWarmQueries, 0)(i => query(cycle(i))))
    val metrics = phase("measured") {
      if (a.trace) traced(next, worlds)
      else {
        val ms = mutable.ArrayBuffer.empty[Double]
        val t0 = System.nanoTime()
        loopFor(a.seconds, MinTimedQueries, next)(i => ms += query(cycle(i)))
        val wallS = (System.nanoTime() - t0) / 1e9
        samplesMs = ms.toSeq
        Report.endToEnd(ms.toSeq, wallS, worlds, setupS)
      }
    }
    report(metrics, setups, worlds)
  }

  /** Untraced and traced queries alternate; then one query is replayed. */
  private def traced(first: Int, worlds: Long): Seq[Metric] = {
    val sc = spark.sparkContext
    val listener = new QueryListener
    val plain = mutable.ArrayBuffer.empty[Double]
    val tracedQs = mutable.ArrayBuffer.empty[TracedQuery]
    Jvm.resetHeapPeak()
    loopFor(a.seconds, 2 * MinWarmQueries, first) { i =>
      val q = cycle(i / 2)
      if (i % 2 == 0) plain += query(q)
      else {
        listener.reset()
        sc.addSparkListener(listener)
        val gc0 = Jvm.gcMs
        val (startMs, startUs) = (System.currentTimeMillis(), spans.nowUs)
        val ms = query(q)
        val (endMs, endUs) = (System.currentTimeMillis(), spans.nowUs)
        val gcMs = (Jvm.gcMs - gc0).toDouble
        listener.drain(sc)
        sc.removeSparkListener(listener)
        val cost = listener.cost()
        val root = spans.add(i, -1, w.entry.call, startUs, endUs)
        for ((s, e) <- cost.jobIntervalsMs) spans.add(i, root, "core.job", spans.msToUs(s), spans.msToUs(e))
        tracedQs += TracedQuery(ms, cost, Stats.uncovered(startMs, endMs, cost.jobIntervalsMs).toDouble, gcMs)
      }
    }
    val heapPeakMb = Jvm.heapPeakMb

    // Replay query 0 and re-derive its answer from the per-world results.
    val rep = Replay.run(w, g, a.seed, 0, spans, -1)
    attempted += 1
    for (sparkAnswer <- lastAnswer.get(0); why <- Answers.agree(rep.answer, sparkAnswer, w.k)) {
      failed += 1
      problems += s"replay disagrees with the Spark answer: $why"
    }
    if (!lastAnswer.contains(0)) { failed += 1; problems += "no Spark answer for the replayed query" }

    Report.perLayer(w, rep.totals, tracedQs.toSeq, plain.toSeq, heapPeakMb, cores)
  }

  private def writeReference(): Unit = {
    val path = a.reference.getOrElse(throw new IllegalArgumentException("--write-reference needs --reference"))
    val lines = (0 until w.queriesPerCycle).flatMap { q =>
      val ans = w.query(spark, g, a.seed, q)
      require(Answers.structural(ans, w.k, w.scoreDenominator).isEmpty, s"query $q fails the structural checks")
      Answers.referenceLines(w.name, q, ans)
    }
    val kept = if (Files.exists(path))
      Files.readAllLines(path, StandardCharsets.UTF_8).asScala.filterNot(_.startsWith(w.name + "\t")).toSeq
    else Seq.empty
    Files.write(path, (kept ++ lines).asJava, StandardCharsets.UTF_8)
    println(s"wrote ${lines.size} reference lines for ${w.name} to $path")
  }

  private def conditions(worlds: Long): Seq[(String, String)] = Seq(
    "workload" -> w.name,
    "entry" -> w.entry.call,
    "dataset" -> s"${w.dataset} (n=${g.n}, m=${g.m})",
    "notion" -> w.notion.name,
    "k" -> w.k.toString,
    "theta" -> (if (w.entry == Entry.Exact) s"all 2^${g.m} worlds" else w.theta.toString),
    "worlds_per_query" -> worlds.toString,
    "workload_seed" -> a.seed.toString,
    "commit" -> a.commit,
    "source_digest" -> a.sourceDigest,
    "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
    "gc" -> Jvm.collectors,
    "spark" -> org.apache.spark.SPARK_VERSION,
    "spark_master" -> spark.sparkContext.master,
    "cores" -> cores.toString,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1024 * 1024)).toString,
    "seconds" -> a.seconds.toString,
    "trace" -> (if (a.trace) "1" else "0"),
  )

  private def report(metrics: Seq[Metric], setups: Seq[Double], worlds: Long): Unit = {
    val cond = conditions(worlds)
    val failedFrac = failed.toDouble / attempted
    println(s"== perfbench ${w.name} seed=${a.seed} trace=${if (a.trace) 1 else 0} ==")
    for ((k, v) <- cond) println(f"  $k%-20s $v")
    for (m <- metrics) println(f"  ${m.name}%-28s ${m.value}%14.4f ${m.unit}%-6s ${m.note}")
    println(f"  ${"failed_frac"}%-28s $failedFrac%14.4f ratio  $failed of $attempted queries")
    println(s"  set-ups (s): ${setups.map(s => f"$s%.3f").mkString(" ")}")
    println(s"  phases: ${phases.mkString("; ")}")
    problems.take(20).foreach(p => println(s"  PROBLEM $p"))

    val out = a.workDir.resolve(s"${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}")
    Files.createDirectories(a.workDir)
    if (a.trace) spans.write(Paths.get(out.toString + "-spans.tsv"))
    val full = Json.obj(Seq(
      "conditions" -> Json.obj(cond.map { case (k, v) => k -> Json.str(v) }),
      "metrics" -> Json.obj(metrics.map(m => m.name -> Json.obj(Seq(
        "value" -> Json.num(m.value), "unit" -> Json.str(m.unit), "note" -> Json.str(m.note))))),
      "failed_frac" -> Json.num(failedFrac),
      "setups_s" -> Json.arr(setups.map(Json.num)),
      "query_ms" -> Json.arr(samplesMs.map(Json.num)),
      "every_query_ms" -> Json.arr(allMs.toSeq.map(Json.num)),
      "problems" -> Json.arr(problems.toSeq.map(Json.str)),
    ))
    Files.write(Paths.get(out.toString + ".json"), full.getBytes(StandardCharsets.UTF_8))
    println(Json.obj(Seq(
      "correct" -> (if (failed == 0) "true" else "false"),
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map(m => m.name -> Json.obj(Seq(
        "value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))),
    )))
  }
}
