package repro.perfbench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** The metrics the benchmark prints are exactly the ones BENCHMARK.json
  * declares, with the same units, and its workloads exist.
  */
class BenchmarkJsonSpec extends AnyFunSuite {

  private val spec: JsonNode = new ObjectMapper().readTree(new File("../BENCHMARK.json"))

  private def declared(key: String): Seq[(String, String)] =
    spec.get(key).elements().asScala.map(m => (m.get("name").asText, m.get("unit").asText)).toSeq

  private def printed(ms: Seq[Metric]): Seq[(String, String)] = ms.map(m => (m.name, m.unit))

  test("end-to-end metrics match BENCHMARK.json") {
    val ms = Report.endToEnd((1 to 25).map(_.toDouble), wallS = 10.0, worlds = 64, setupS = 0.5)
    assert(printed(ms) == declared("end_to_end"))
  }

  test("per-layer metrics match BENCHMARK.json on every workload") {
    val cost = SparkCost(jobs = 1, tasks = 4, taskBusyMs = 100, shuffleBytes = 0, fanoutSkew = 1.0, jobIntervalsMs = Seq.empty)
    for (w <- Workloads.all) {
      val ms = Report.perLayer(w, new Replay.Totals, Seq(TracedQuery(50, cost, 10, 0)), Seq(45.0), 100.0, cores = 4)
      assert(printed(ms) == declared("per_layer"), w.name)
    }
  }

  test("every workload in BENCHMARK.json exists, with its reason") {
    for (w <- spec.get("workloads").elements().asScala) {
      val name = w.get("name").asText
      assert(Workloads.all.exists(x => x.name == name && x.why == w.get("why").asText), name)
    }
  }

  test("metric names are unique and setup_s has the largest bound") {
    val all = declared("end_to_end") ++ declared("per_layer")
    assert(all.map(_._1).distinct.size == all.size)
    val bounds = spec.get("end_to_end").elements().asScala.map(m => m.get("name").asText -> m.get("bound").asDouble).toMap
    assert(bounds("setup_s") == bounds.values.max)
  }
}
