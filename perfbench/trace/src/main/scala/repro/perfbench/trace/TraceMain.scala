package repro.perfbench.trace

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.SparkEnv
import org.apache.spark.sql.SparkSession
import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer
import repro.core.{ExactButterflyCounter, ParAbacus, PartitionCount, StreamElement}
import repro.perfbench._

/** Traced benchmark run. The first half of `--seconds` repeats the untraced
  * measurement (for the tracing overhead and the JVM counters); the second
  * half drives the workload through the traced compositions, recording
  * spans and layer counters from the benchmark's own code. Every traced
  * composition is checked against the real estimate, bit for bit.
  */
object TraceMain {
  import Workloads._

  /** Per-layer metrics and their units, in the order they are reported.
    * Layers a workload does not run report 0.
    */
  val Units: Seq[(String, String)] = Seq(
    "counter.calls" -> "count", "counter.busy_ms" -> "ms", "counter.probes" -> "count",
    "counter.butterflies" -> "count", "counter.hit_ratio" -> "ratio", "counter.empty_frac" -> "ratio",
    "rp.calls" -> "count", "rp.busy_ms" -> "ms", "rp.deltas" -> "count",
    "parabacus.phase1_ms" -> "ms", "parabacus.snapshot_bytes" -> "B",
    "parabacus.snapshot_deltas" -> "count",
    "replay.busy_ms" -> "ms", "replay.share" -> "ratio",
    "task.count_ms" -> "ms", "task.work_skew" -> "ratio",
    "spark.task_run_ms" -> "ms", "spark.task_deser_ms" -> "ms", "spark.sched_delay_ms" -> "ms",
    "spark.result_bytes" -> "B", "spark.overhead_ms" -> "ms",
    "stream.batches" -> "count", "stream.rows_per_batch" -> "count", "stream.trigger_ms" -> "ms",
    "stream.addbatch_ms" -> "ms", "stream.planning_ms" -> "ms", "stream.backlog_rows_max" -> "count",
    "gen.late_ms_max" -> "ms", "exact.rel_error" -> "ratio",
  )

  private def ms(ns: Double): Double = ns / 1e6
  private def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Element-level layer totals, reported per pass over the input. */
  final class ElementLayers {
    var counterCalls, counterNs, probes, butterflies, empties = 0L
    var rpCalls, rpNs, deltas = 0L

    def report(rep: Report, passes: Int): Unit = {
      def put(n: String, v: Double) = rep.layers(n) = (v, rep.layers(n)._2)
      put("counter.calls", counterCalls.toDouble / passes)
      put("counter.busy_ms", ms(counterNs.toDouble) / passes)
      put("counter.probes", probes.toDouble / passes)
      put("counter.butterflies", butterflies.toDouble / passes)
      put("counter.hit_ratio", if (probes > 0) butterflies.toDouble / probes else 0.0)
      put("counter.empty_frac", if (counterCalls > 0) empties.toDouble / counterCalls else 0.0)
      put("rp.calls", rpCalls.toDouble / passes)
      put("rp.busy_ms", ms(rpNs.toDouble) / passes)
      put("rp.deltas", deltas.toDouble / passes)
    }
  }

  /** Batch-level layer samples of PARABACUS, reported as means per batch. */
  final class BatchLayers {
    val phase1Ms, snapshotBytes, snapshotDeltas = ArrayBuffer.empty[Double]
    val replayMs, countMs, workSkew = ArrayBuffer.empty[Double]
    val runMs, deserMs, schedMs, resultBytes, overheadMs = ArrayBuffer.empty[Double]

    def tasks(ts: Seq[TaskRecord]): Unit = {
      runMs += ts.map(_.runMs.toDouble).sum
      deserMs += ts.map(_.deserMs.toDouble).sum
      schedMs += ts.map(_.schedDelayMs.toDouble).sum
      resultBytes += ts.map(_.resultBytes.toDouble).sum
    }

    def report(rep: Report): Unit = {
      def put(n: String, v: Double) = rep.layers(n) = (v, rep.layers(n)._2)
      put("parabacus.phase1_ms", mean(phase1Ms))
      put("parabacus.snapshot_bytes", mean(snapshotBytes))
      put("parabacus.snapshot_deltas", mean(snapshotDeltas))
      put("replay.busy_ms", mean(replayMs))
      put("replay.share", if (countMs.sum > 0) replayMs.sum / countMs.sum else 0.0)
      put("task.count_ms", mean(countMs))
      put("task.work_skew", mean(workSkew))
      put("spark.task_run_ms", mean(runMs))
      put("spark.task_deser_ms", mean(deserMs))
      put("spark.sched_delay_ms", mean(schedMs))
      put("spark.result_bytes", mean(resultBytes))
      put("spark.overhead_ms", mean(overheadMs))
    }
  }

  /** Traced PARABACUS over consecutive batches: the recomposed phase 1 and a
    * Spark job of recomposed tasks, checked against the real per-partition
    * results when `real` gives them. `estimate` sums the partial counts in
    * the order `ParAbacus` does.
    */
  final class TracedParAbacus(w: Workload, seed: Long, spark: SparkSession, spans: Spans,
                              el: ElementLayers, bl: BatchLayers) {
    private val phase1 = new TracedPhase1(w.k, samplerSeed(seed))
    private val sc = spark.sparkContext
    private val p = parallelism
    var estimate = 0.0

    /** Returns the start and end of the traced batch and its phase 1 in ms. */
    def batch(els: IndexedSeq[StreamElement], batchId: Long, rep: Report,
              real: Option[Seq[PartitionCount]]): (Long, Long, Double) = {
      sc.setLocalProperty(TaskProbe.TagKey, s"traced:$batchId")
      val rp0 = phase1.pairing.busyNs; val rc0 = phase1.pairing.calls; val d0 = phase1.deltas
      val t0 = System.nanoTime()
      val snap = phase1.snapshot(els)
      val t1 = System.nanoTime()
      val bc = sc.broadcast(snap)
      val pp = p
      val outs = sc.parallelize(0 until p, p).map(pid => TracedTask.countRange(bc.value, pid, pp))
        .collect().sortBy(_.pid)
      bc.destroy()
      val t2 = System.nanoTime()
      sc.setLocalProperty(TaskProbe.TagKey, null)

      val root = spans.add("traced.batch", t0, t2, -1, batchId)
      val ph = spans.add("core.ParAbacus.phase1", t0, t1, root, batchId)
      spans.packed(ph, batchId, t0,
        Seq(("core.RandomPairing.apply", phase1.pairing.busyNs - rp0, phase1.pairing.calls - rc0)))
      val job = spans.add("traced.job", t1, t2, root, batchId)
      outs.foreach { o =>
        val task = spans.add("core.ParAbacus.countRange", o.start, o.end, job, batchId)
        spans.add("core.SampleReplayer.replayBase", o.start, o.baseReplayed, task, batchId)
        spans.packed(task, batchId, o.baseReplayed, Seq(
          ("core.SampleReplayer.advanceTo", o.advanceNs, o.edges.toLong),
          ("core.ButterflyCounter.countForEdge", o.counterNs, o.counterCalls)))
      }

      outs.foreach(o => estimate += o.partial)
      real.foreach { rs =>
        rep.check(rs.length == outs.length && rs.sortBy(_.partition).zip(outs).forall {
          case (r, o) => r.partialCount == o.partial && r.work == o.work && r.edges == o.edges
        }, s"batch $batchId: traced tasks differ from the real PARABACUS tasks")
      }

      el.rpCalls += phase1.pairing.calls - rc0
      el.rpNs += phase1.pairing.busyNs - rp0
      el.deltas += phase1.deltas - d0
      outs.foreach { o =>
        el.counterCalls += o.counterCalls; el.counterNs += o.counterNs
        el.probes += o.probes; el.butterflies += o.butterflies; el.empties += o.empties
      }
      val phase1Ms = ms((t1 - t0).toDouble)
      bl.phase1Ms += phase1Ms
      bl.snapshotBytes += SparkEnv.get.serializer.newInstance().serialize(snap).remaining().toDouble
      bl.snapshotDeltas += (phase1.deltas - d0).toDouble
      bl.replayMs += ms(outs.map(o => (o.baseReplayed - o.start + o.advanceNs).toDouble).sum)
      bl.countMs += ms(outs.map(o => (o.end - o.start).toDouble).sum)
      val works = outs.map(_.work.toDouble)
      bl.workSkew += (if (works.sum > 0) works.max / (works.sum / works.length) else 1.0)
      (t0, t2, phase1Ms)
    }
  }

  def tracedAbacus(w: Workload, p: Prepared, seed: Long, deadline: Long, rep: Report,
                   spans: Spans): Unit = {
    val el = new ElementLayers
    val passes = ArrayBuffer.empty[Seq[Array[Long]]]
    val nBatches = p.reference.length
    while (passes.isEmpty || System.nanoTime() < deadline) {
      val t = new TracedAbacus(w.k, samplerSeed(seed))
      val out = ArrayBuffer.empty[Array[Long]]
      var b = 0
      while (b < nBatches) {
        val id = passes.length.toLong * nBatches + b
        val c0 = t.counter.busyNs; val cc0 = t.counter.calls
        val r0 = t.pairing.busyNs; val rc0 = t.pairing.calls
        var i = b * Chunk
        val hi = math.min(i + Chunk, p.input.length)
        val s = System.nanoTime()
        while (i < hi) { t.process(p.input(i)); i += 1 }
        val e = System.nanoTime()
        val root = spans.add("abacus.chunk", s, e, -1, id)
        spans.packed(root, id, s, Seq(
          ("core.ButterflyCounter.countForEdge", t.counter.busyNs - c0, t.counter.calls - cc0),
          ("core.RandomPairing.apply", t.pairing.busyNs - r0, t.pairing.calls - rc0)))
        rep.check(t.estimate == p.reference(b),
          s"traced ABACUS batch $b: ${t.estimate} != plain ABACUS ${p.reference(b)}")
        out += Array((hi - b * Chunk).toLong, s, e)
        b += 1
      }
      el.counterCalls += t.counter.calls; el.counterNs += t.counter.busyNs
      el.probes += t.probes; el.butterflies += t.butterflies; el.empties += t.empties
      el.rpCalls += t.pairing.calls; el.rpNs += t.pairing.busyNs; el.deltas += t.deltas
      passes += out.toSeq
    }
    el.report(rep, passes.length)
    rep.info("traced_closed_passes") = passes.map(_.map(_.toSeq))
  }

  def tracedParabacus(w: Workload, p: Prepared, seed: Long, deadline: Long, rep: Report,
                      spans: Spans, spark: SparkSession, probe: TaskProbe): Unit = {
    val sc = spark.sparkContext
    val el = new ElementLayers
    val bl = new BatchLayers
    val batches = p.input.grouped(Chunk).map(ArraySeq.unsafeWrapArray(_)).toArray
    val passes = ArrayBuffer.empty[Seq[Array[Long]]]
    val realSpan = ArrayBuffer.empty[(Long, Int, Long, Double)] // batch, span, wall ns, phase 1 ms
    while (passes.isEmpty || System.nanoTime() < deadline) {
      val pa = new ParAbacus(w.k, samplerSeed(seed), spark, parallelism)
      val traced = new TracedParAbacus(w, seed, spark, spans, el, bl)
      val out = ArrayBuffer.empty[Array[Long]]
      batches.indices.foreach { b =>
        val id = passes.length.toLong * batches.length + b
        sc.setLocalProperty(TaskProbe.TagKey, s"real:$id")
        val r0 = System.nanoTime()
        val real = pa.processBatch(batches(b))
        val r1 = System.nanoTime()
        sc.setLocalProperty(TaskProbe.TagKey, null)
        val rs = spans.add("parabacus.processBatch", r0, r1, -1, id)
        val (s, e, phase1Ms) = traced.batch(batches(b), id, rep, Some(real))
        realSpan += ((id, rs, r1 - r0, phase1Ms))
        rep.check(traced.estimate == pa.estimate,
          s"batch $b: traced estimate ${traced.estimate} != PARABACUS ${pa.estimate}")
        rep.check(close(pa.estimate, p.reference(b)),
          s"batch $b: PARABACUS ${pa.estimate} != plain ABACUS ${p.reference(b)}")
        out += Array(batches(b).length.toLong, s, e)
      }
      passes += out.toSeq
    }
    val offsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
    val byTag = probe.tasks(sc).groupBy(_.tag)
    realSpan.foreach { case (id, span, wallNs, phase1Ms) =>
      val ts = byTag.getOrElse(s"real:$id", Nil)
      ts.foreach(t => spans.add("spark.task", t.launchMs * 1000000L - offsetNs,
        t.finishMs * 1000000L - offsetNs, span, id))
      bl.tasks(ts)
      bl.overheadMs += ms(wallNs.toDouble) - phase1Ms -
        (if (ts.isEmpty) 0.0 else ts.map(_.durationMs).max.toDouble)
    }
    el.report(rep, passes.length)
    bl.report(rep)
    rep.info("traced_closed_passes") = passes.map(_.map(_.toSeq))
  }

  def tracedStreaming(w: Workload, p: Prepared, seed: Long, rep: Report, spans: Spans,
                      spark: SparkSession, tasks: TaskProbe, progress: ProgressProbe): Unit = {
    val sc = spark.sparkContext
    val rows = rowsOf(p.input)
    var queryId: java.util.UUID = null
    val (pass, pa) = openPass(spark, rows, p.input.length, w.k, seed, rep, q => queryId = q.id)
    rep.info("traced_open_passes") = Seq(pass.toJson)
    val prog = progress.progress(sc, queryId).filter(_.numInputRows > 0)
    rep.check(prog.map(_.numInputRows).sum == p.input.length,
      s"progress events cover ${prog.map(_.numInputRows).sum} of ${p.input.length} rows")

    // Recompose PARABACUS over the micro-batches the query formed.
    val el = new ElementLayers
    val bl = new BatchLayers
    val traced = new TracedParAbacus(w, seed, spark, spans, el, bl)
    var lo = 0
    val phase1Ms = prog.map { pr =>
      val hi = lo + pr.numInputRows.toInt
      val (_, _, ph) = traced.batch(ArraySeq.unsafeWrapArray(p.input.slice(lo, hi)),
        pr.batchId, rep, None)
      lo = hi
      ph
    }
    rep.check(traced.estimate == pa.estimate,
      s"traced recomposition ${traced.estimate} != streaming PARABACUS ${pa.estimate}")

    val offsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
    val byTag = tasks.tasks(sc).groupBy(_.tag)
    def dur(pr: org.apache.spark.sql.streaming.StreamingQueryProgress, k: String): Long =
      Option(pr.durationMs.get(k)).map(_.longValue).getOrElse(0L)
    prog.zip(phase1Ms).foreach { case (pr, ph) =>
      val start = java.time.Instant.parse(pr.timestamp).toEpochMilli * 1000000L - offsetNs
      val root = spans.add("stream.microbatch", start,
        start + dur(pr, "triggerExecution") * 1000000L, -1, pr.batchId)
      var t = start
      Seq("latestOffset", "walCommit", "queryPlanning", "addBatch", "commitOffsets").foreach { k =>
        val d = dur(pr, k) * 1000000L
        if (d > 0) {
          val id = spans.add(s"stream.$k", t, t + d, root, pr.batchId)
          if (k == "addBatch")
            byTag.getOrElse(s"stream:${pr.batchId}", Nil).foreach(tr => spans.add("spark.task",
              tr.launchMs * 1000000L - offsetNs, tr.finishMs * 1000000L - offsetNs, id, pr.batchId))
          t += d
        }
      }
      val ts = byTag.getOrElse(s"stream:${pr.batchId}", Nil)
      bl.tasks(ts)
      val counting = ts.filter(_.stage.contains("ParAbacus"))
      bl.overheadMs += dur(pr, "addBatch") - ph -
        (if (counting.isEmpty) 0.0 else counting.map(_.durationMs).max.toDouble)
    }
    el.report(rep, 1)
    bl.report(rep)
    def put(n: String, v: Double) = rep.layers(n) = (v, rep.layers(n)._2)
    put("stream.batches", prog.length.toDouble)
    put("stream.rows_per_batch", mean(prog.map(_.numInputRows.toDouble)))
    put("stream.trigger_ms", mean(prog.map(dur(_, "triggerExecution").toDouble)))
    put("stream.addbatch_ms", mean(prog.map(dur(_, "addBatch").toDouble)))
    put("stream.planning_ms", mean(prog.map(dur(_, "queryPlanning").toDouble)))
    // Rows offered but not yet committed, right after each commit.
    val gapNs = 1e9 / pass.rate
    var committed = 0L
    val backlog = pass.batches.map { case (n, commitNs) =>
      committed += n
      val offered = math.min(pass.rows.toLong, ((commitNs - pass.t0Ns) / gapNs).toLong + 1L)
      math.max(0L, offered - committed)
    }
    put("stream.backlog_rows_max", if (backlog.isEmpty) 0.0 else backlog.max.toDouble)
    put("gen.late_ms_max", ms((rep.openPasses.map(_.lateNsMax) :+ pass.lateNsMax).max.toDouble))
  }

  /** Workloads on the two lite-dataset inputs, where the exact count is
    * affordable (seconds); the 2M-edge sparse graph's is not.
    */
  val ExactCounted = Set("abacus-dense-sample", "parabacus-spark", "streaming-open-loop")

  /** Relative error of the plain ABACUS estimate against the exact count. */
  def exactError(p: Prepared, rep: Report): Unit = {
    val t0 = System.nanoTime()
    val exact = new ExactButterflyCounter().processAll(ArraySeq.unsafeWrapArray(p.input))
    rep.setupOnce("exact_count") = secondsSince(t0)
    rep.info("exact_count") = exact
    val err = if (exact != 0) math.abs(p.reference.last - exact) / exact else 0.0
    rep.layers("exact.rel_error") = (err, "ratio")
  }

  def runOne(w: Workload, o: Options, sessions: Sessions): (Report, Spans) = {
    val rep = new Report(w.name, o.seed)
    val spans = new Spans
    Units.foreach { case (n, u) => rep.layers(n) = (0.0, u) }
    try {
      if (w.usesSpark) sessions.get(rep)
      val p = prepare(w, o.seed, rep)
      if (ExactCounted(w.name)) exactError(p, rep)
      val last = Main.measure(w, p, o.seed, o.seconds / 2, rep, sessions.get(rep))
      rep.info("live_heap_bytes") = liveHeap(last)
      rep.info("elements_per_pass") = p.input.length
      val deadline = System.nanoTime() + (o.seconds / 2 * 1e9).toLong
      if (w.usesSpark) {
        val spark = sessions.get(rep)
        val tasks = new TaskProbe
        val progress = new ProgressProbe
        spark.sparkContext.addSparkListener(tasks)
        spark.streams.addListener(progress)
        try {
          if (w.name == "parabacus-spark")
            tracedParabacus(w, p, o.seed, deadline, rep, spans, spark, tasks)
          else tracedStreaming(w, p, o.seed, rep, spans, spark, tasks, progress)
        } finally {
          spark.sparkContext.removeSparkListener(tasks)
          spark.streams.removeListener(progress)
        }
      } else tracedAbacus(w, p, o.seed, deadline, rep, spans)
    } catch {
      case e: Throwable =>
        e.printStackTrace()
        rep.check(ok = false, s"traced workload aborted: $e")
    }
    (rep, spans)
  }

  def main(args: Array[String]): Unit = {
    val o = Options.parse(args)
    val sessions = new Sessions(o.workDir)
    try {
      val done = o.workloads.map(runOne(_, o, sessions))
      done.foreach { case (rep, spans) =>
        Files.write(Paths.get(o.out).resolveSibling(s"spans-${rep.workload}.json"),
          Json.write(spans.toJson).getBytes(StandardCharsets.UTF_8))
      }
      Main.writeResult(o, done.map(_._1))
    } finally sessions.stop()
  }
}
