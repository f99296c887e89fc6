package repro.perfbench

import repro.core.DensityNotion
import repro.graph.{EdgeDensest, HyperPeeling}
import repro.mining.TFP
import repro.uncertain.{UncertainGraph, WorldSampler}
import scala.collection.mutable

/** Sequential driver-side replay of one query's worlds, timing each
  * layer's public function per world in pipeline order:
  *
  *   worldForIndex (or worldOfMask + worldProbability) → UncertainGraph.world
  *   → instances → HyperPeeling.peel → EdgeDensest.maxDensity (edge only)
  *   → allDensest at the workload's cap, then TFP.topK for NDS.
  *
  * The real per-world path of the entry points is sample + world +
  * allDensest. `instances`, `peel` and `maxDensity` are probes of parts
  * that allDensest repeats inside itself; they are timed separately and
  * are not part of that path. From its own per-world results the replay
  * re-derives the query's top-k answer.
  */
object Replay {

  private val LayerSpans = Seq("uncertain.sample", "uncertain.world", "graph.instances", "graph.peel",
    "graph.maxdensity", "graph.alldensest")

  final class Totals {
    var worlds = 0L
    var sampleNs, worldNs, instancesNs, peelNs, maxDensityNs, allDensestNs = 0L
    var edges, instances, coreNodes, densest, capped, empty = 0L
    var tfpNs = 0L
    var transactions, items = 0L
    var candidateRows = 0L
    var distinctCandidates = 0L
  }

  final case class Result(answer: Answer, totals: Totals)

  def run(w: Workload, g: UncertainGraph, seed: Long, q: Int, spans: Spans, query: Int): Result = {
    val t = new Totals
    val root = spans.add(query, -1, "replay", spans.nowUs, -1L)
    val freq = mutable.HashMap.empty[String, Long]
    val mass = mutable.HashMap.empty[String, Double]
    val transactions = mutable.ArrayBuffer.empty[Set[Int]]
    val isEdge = w.notion == DensityNotion.Edge
    val querySeed = w.querySeed(seed, q)

    var i = 0L
    while (i < w.worldsPerQuery(g)) {
      val times = new Array[Long](7)
      times(0) = System.nanoTime()
      var pr = 1.0
      val present =
        if (w.entry == Entry.Exact) { val p = g.worldOfMask(i); pr = g.worldProbability(p); p }
        else WorldSampler.MonteCarlo.worldForIndex(g, i, w.theta, querySeed)
      times(1) = System.nanoTime()
      val world = g.world(present)
      times(2) = System.nanoTime()
      val inst = w.notion.instances(world)
      times(3) = System.nanoTime()
      val peel = HyperPeeling.peel(world.n, inst)
      times(4) = System.nanoTime()
      if (isEdge) EdgeDensest.maxDensity(world)
      times(5) = System.nanoTime()
      val res = w.notion.allDensest(world, w.cap)
      times(6) = System.nanoTime()

      t.worlds += 1
      t.sampleNs += times(1) - times(0)
      t.worldNs += times(2) - times(1)
      t.instancesNs += times(3) - times(2)
      t.peelNs += times(4) - times(3)
      t.maxDensityNs += times(5) - times(4)
      t.allDensestNs += times(6) - times(5)
      t.edges += world.m
      t.instances += inst.length
      if (inst.nonEmpty) {
        val (a, b) = peel.bestDensity
        t.coreNodes += peel.coreAtLeast((a + b - 1) / b).count(identity)
      }
      t.densest += res.all.size
      if (res.capped) t.capped += 1
      if (res.all.isEmpty) t.empty += 1

      w.entry match {
        case Entry.Mpds =>
          for (s <- res.all) freq(s.mkString(",")) = freq.getOrElse(s.mkString(","), 0L) + 1
          t.candidateRows += res.all.size
        case Entry.Exact =>
          if (pr > 0.0) {
            for (s <- res.all) mass(s.mkString(",")) = mass.getOrElse(s.mkString(","), 0.0) + pr
            t.candidateRows += res.all.size
          }
        case Entry.Nds =>
          transactions += res.maxSized.toSet
          t.candidateRows += 1
      }

      val ws = spans.add(query, root, "replay.world", spans.nsToUs(times(0)), spans.nsToUs(times(6)))
      for (k <- LayerSpans.indices if isEdge || LayerSpans(k) != "graph.maxdensity")
        spans.add(query, ws, LayerSpans(k), spans.nsToUs(times(k)), spans.nsToUs(times(k + 1)))
      i += 1
    }

    val answer = w.entry match {
      case Entry.Mpds =>
        t.distinctCandidates = freq.size
        Answer(freq.toSeq.sortBy { case (key, f) => (-f, key) }.take(w.k)
          .map { case (key, f) => Answer.Entry(key.split(',').map(_.toInt).toSeq, f.toDouble / w.theta) })
      case Entry.Exact =>
        t.distinctCandidates = mass.size
        Answer(mass.toSeq.sortBy { case (key, p) => (-p, key) }.take(w.k)
          .map { case (key, p) => Answer.Entry(key.split(',').map(_.toInt).toSeq, p) })
      case Entry.Nds =>
        val nonEmpty = transactions.filter(_.nonEmpty).toSeq
        t.distinctCandidates = nonEmpty.distinct.size
        t.transactions = nonEmpty.size
        t.items = nonEmpty.flatten.distinct.size
        val s0 = spans.nowUs
        val t0 = System.nanoTime()
        val top = TFP.topK(nonEmpty, w.k, w.lm)
        t.tfpNs = System.nanoTime() - t0
        spans.add(query, root, "mining.tfp", s0, spans.nowUs)
        Answer(top.map(c => Answer.Entry(c.items.toSeq.sorted, c.support.toDouble / w.theta)))
    }
    spans.close(root, spans.nowUs)
    Result(answer, t)
  }
}
