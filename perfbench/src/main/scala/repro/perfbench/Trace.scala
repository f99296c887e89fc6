package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One traced interval. Spans of one query share `query`; `parent` is the
  * id of the span that caused this one (-1 for a root). Times are µs since
  * the recorder was created.
  */
final case class Span(query: Int, id: Int, parent: Int, name: String, startUs: Long, endUs: Long)

/** Spans kept in memory and written out once, when the benchmark ends. */
final class Spans {
  private val originNs = System.nanoTime()
  private val originMs = System.currentTimeMillis()
  private val spans = mutable.ArrayBuffer.empty[Span]

  def nsToUs(nanoTime: Long): Long = (nanoTime - originNs) / 1000
  def nowUs: Long = nsToUs(System.nanoTime())
  def msToUs(epochMs: Long): Long = (epochMs - originMs) * 1000

  def add(query: Int, parent: Int, name: String, startUs: Long, endUs: Long): Int = {
    val id = spans.length
    spans += Span(query, id, parent, name, startUs, endUs)
    id
  }

  def close(id: Int, endUs: Long): Unit = spans(id) = spans(id).copy(endUs = endUs)

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val lines = "query\tspan\tparent\tname\tstart_us\tend_us" +:
      spans.map(s => s"${s.query}\t${s.id}\t${s.parent}\t${s.name}\t${s.startUs}\t${s.endUs}")
    Files.write(path, lines.asJava, StandardCharsets.UTF_8)
  }
}

/** Spark-side cost of one query, from the listener. */
final case class SparkCost(
    jobs: Int,
    tasks: Int,
    taskBusyMs: Double,
    shuffleBytes: Double,
    fanoutSkew: Double,
    jobIntervalsMs: Seq[(Long, Long)],
)

/** A Spark listener the benchmark registers around each traced query. It
  * records job intervals and, per task, its stage, duration and shuffle
  * bytes written. Listener events arrive asynchronously; `drain` runs a
  * marker job and waits for its end event, after which every event of the
  * jobs before it has been seen (the listener bus keeps event order).
  */
final class QueryListener extends SparkListener {
  private val MarkerGroup = "perfbench-marker"
  private case class Job(startMs: Long, var endMs: Long)
  private case class Task(stage: Int, durationMs: Long, shuffleBytes: Long)
  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val tasks = mutable.ArrayBuffer.empty[Task]
  @volatile private var markersSeen = 0
  private var markersRun = 0

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
    if (group != MarkerGroup) jobs(e.jobId) = Job(e.time, -1L)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId) match {
      case Some(j) => j.endMs = e.time
      case None => markersSeen += 1
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val shuffle = Option(e.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
    tasks += Task(e.stageId, e.taskInfo.duration, shuffle)
  }

  def drain(sc: SparkContext): Unit = {
    sc.setJobGroup(MarkerGroup, "listener drain marker")
    try sc.parallelize(Seq(0), 1).count()
    finally sc.clearJobGroup()
    markersRun += 1
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (markersSeen < markersRun) {
      require(System.nanoTime() < deadline, "Spark listener did not drain within 30 s")
      Thread.sleep(1)
    }
  }

  /** Cost of everything recorded since the last `reset`. The world fan-out
    * stage is the stage with the most task time.
    */
  def cost(): SparkCost = synchronized {
    val byStage = tasks.groupBy(_.stage)
    val fanout = if (byStage.isEmpty) Seq.empty[Task] else byStage.values.maxBy(_.map(_.durationMs).sum).toSeq
    val durations = fanout.map(_.durationMs.toDouble)
    val skew = if (durations.isEmpty || durations.sum == 0) 1.0 else durations.max / Stats.mean(durations)
    SparkCost(
      jobs = jobs.size,
      tasks = tasks.size,
      taskBusyMs = tasks.map(_.durationMs).sum.toDouble,
      shuffleBytes = tasks.map(_.shuffleBytes).sum.toDouble,
      fanoutSkew = skew,
      jobIntervalsMs = jobs.values.map(j => (j.startMs, j.endMs)).toSeq,
    )
  }

  def reset(): Unit = synchronized { jobs.clear(); tasks.clear() }
}

/** JVM-wide counters read around traced queries. */
object Jvm {
  def collectors: String = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(", ")

  def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  def resetHeapPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the heap pools' peak usage since the last reset, in MB. */
  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)
}
