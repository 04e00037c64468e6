package repro.perfbench

import java.lang.management.ManagementFactory
import java.time.Instant
import java.util.concurrent.locks.LockSupport
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer
import repro.SynthData
import repro.core.{Abacus, ParAbacus, StreamElement}
import repro.graph.{Datasets, LiteDataset, StreamGen}
import repro.streaming.StructuredParAbacus

/** One benchmark workload: how its input is generated from the seed, the
  * sample budget k, and whether it runs on Spark.
  */
final case class Workload(name: String, k: Int, usesSpark: Boolean,
                          gen: Long => Array[StreamElement])

/** A workload's input after set-up. `reference` holds the estimates of a
  * plain [[Abacus]] run after every [[Workloads.Chunk]] elements, the last
  * one after the whole stream.
  */
final case class Prepared(input: Array[StreamElement], reference: Array[Double])

object Workloads {
  /** Closed-loop batch size; equals the PARABACUS mini-batch size M. */
  val Chunk = 10000
  /** One element in this many has its latency measured. */
  val LatencySampling = 16
  /** Set-up repetitions per run; set-up time is their median. */
  val SetupReps = 3
  /** Offered rate of the open loop, rows per second. */
  val OpenRate = 10000.0
  /** Rows handed to the source at once: 10 ms of the open loop. */
  val OpenGroup = 100
  /** Rows at the start of every open-loop pass left out of its metrics: at
    * 10K rows/s the first micro-batches of a new query take about 2 s to
    * settle to their steady size.
    */
  val OpenSettleRows = 20000

  def streamSeed(seed: Long): Long = seed * 31L + 1L
  def samplerSeed(seed: Long): Long = seed * 31L + 2L

  // Inputs are generated here rather than through the `Datasets` caches,
  // so that each set-up repetition really generates its input again.
  private def liteStream(d: LiteDataset, alpha: Double, seed: Long): Vector[StreamElement] =
    StreamGen.fullyDynamic(
      ArraySeq.unsafeWrapArray(
        SynthData.bipartiteEdgesLocal(d.nL, d.nR, d.m, d.alphaL, d.alphaR, d.seed)),
      alpha, streamSeed(seed))

  /** First 160K elements of orkut-lite at α=20%. */
  def orkutPrefix(seed: Long): Array[StreamElement] =
    liteStream(Datasets.orkutLite, 0.2, seed).iterator.take(160000).toArray

  /** First 60K elements of movielens-lite at α=20%: a 6 s pass at
    * [[OpenRate]], short enough that a run times several passes and can
    * report their median.
    */
  def movielensPrefix(seed: Long): Array[StreamElement] =
    liteStream(Datasets.movielensLite, 0.2, seed).iterator.take(60000).toArray

  /** An orkut-shaped graph 6.7× orkut-lite's size at α=30% (2.6M elements). */
  def sparseChurn(seed: Long): Array[StreamElement] =
    StreamGen.fullyDynamic(
      ArraySeq.unsafeWrapArray(
        SynthData.bipartiteEdgesLocal(200000, 530000, 2000000, 0.85, 0.85, seed)),
      0.3, streamSeed(seed)).toArray

  // Why each workload exists is recorded in BENCHMARK.json and README.md.
  val all: Seq[Workload] = Seq(
    Workload("abacus-dense-sample", 60000, usesSpark = false, orkutPrefix),
    Workload("abacus-sparse-churn", 20000, usesSpark = false, sparseChurn),
    Workload("parabacus-spark", 60000, usesSpark = true, orkutPrefix),
    Workload("streaming-open-loop", 8000, usesSpark = true, movielensPrefix),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  def parallelism: Int = Runtime.getRuntime.availableProcessors

  /** Equality of estimates up to 1e-9 relative (Theorem 5: PARABACUS equals
    * ABACUS up to floating-point summation order).
    */
  def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Estimates of a plain ABACUS run after every chunk. */
  def reference(input: Array[StreamElement], k: Int, seed: Long): Array[Double] = {
    val a = new Abacus(k, samplerSeed(seed))
    val out = new Array[Double]((input.length + Chunk - 1) / Chunk)
    var i = 0
    while (i < input.length) {
      a.process(input(i))
      i += 1
      if (i % Chunk == 0 || i == input.length) out((i - 1) / Chunk) = a.estimate
    }
    out
  }

  /** Repeated set-up: generate the input and run the reference, [[SetupReps]]
    * times. Every repetition must reproduce the first one exactly.
    */
  def prepare(w: Workload, seed: Long, rep: Report): Prepared = {
    var first: Prepared = null
    (0 until SetupReps).foreach { r =>
      val t0 = System.nanoTime()
      val input = w.gen(seed)
      val ref = reference(input, w.k, seed)
      rep.setupReps += secondsSince(t0)
      if (first == null) first = Prepared(input, ref)
      else rep.check(
        java.util.Arrays.equals(ref, first.reference) && input.sameElements(first.input),
        s"set-up repetition $r differs from the first")
    }
    first
  }

  /** A counter driven one closed-loop batch at a time. A counter that takes
    * elements one at a time records each one's latency in `h`.
    */
  trait Driven {
    def feed(batch: Int, h: LatencyHistogram): Unit
    def estimate: Double
    def counter: AnyRef
  }

  def abacusDriven(w: Workload, p: Prepared, seed: Long): () => Driven = () => new Driven {
    private val a = new Abacus(w.k, samplerSeed(seed))
    private val in = p.input
    // One element at a time: each is due when the previous one is done.
    // Every LatencySampling-th element is timed, which keeps the clock reads
    // off most of the sub-microsecond elements of the sparse workload.
    def feed(batch: Int, h: LatencyHistogram): Unit = {
      var i = batch * Chunk
      val hi = math.min(i + Chunk, in.length)
      while (i < hi) {
        if (i % LatencySampling == 0) {
          val t0 = System.nanoTime()
          a.process(in(i))
          h.add(System.nanoTime() - t0)
        } else a.process(in(i))
        i += 1
      }
    }
    def estimate: Double = a.estimate
    def counter: AnyRef = a
  }

  def parabacusDriven(w: Workload, p: Prepared, seed: Long,
                      spark: SparkSession): () => Driven = {
    val batches = p.input.grouped(Chunk).map(ArraySeq.unsafeWrapArray(_)).toArray
    () => new Driven {
      private val pa = new ParAbacus(w.k, samplerSeed(seed), spark, parallelism)
      // Batch latencies are taken from the closed-loop batch records.
      def feed(batch: Int, h: LatencyHistogram): Unit = pa.processBatch(batches(batch))
      def estimate: Double = pa.estimate
      def counter: AnyRef = pa
    }
  }

  /** Closed loop: whole passes over the input, one batch at a time, each
    * batch's estimate checked against the reference. The first pass always
    * completes; later ones stop at the first batch boundary past `deadline`.
    * Returns the counter of the last complete pass, for the heap
    * measurement: a pass cut short leaves a counter with a smaller sample.
    */
  def closedLoop(rep: Report, p: Prepared, deadline: Long,
                 record: Boolean = true)(make: () => Driven): Driven = {
    val nBatches = p.reference.length
    var last: Driven = null
    var passes = 0
    while (passes == 0 || System.nanoTime() < deadline) {
      val d = make()
      val h = new LatencyHistogram
      val out = ArrayBuffer.empty[Array[Long]]
      var b = 0
      while (b < nBatches && (passes == 0 || System.nanoTime() < deadline)) {
        val rows = math.min(Chunk, p.input.length - b * Chunk)
        val t0 = System.nanoTime()
        d.feed(b, h)
        val t1 = System.nanoTime()
        out += Array(rows.toLong, t0, t1)
        rep.check(close(d.estimate, p.reference(b)),
          s"pass $passes batch $b: estimate ${d.estimate} != plain ABACUS ${p.reference(b)}")
        b += 1
      }
      if (record) {
        rep.closedPasses += out.toSeq
        if (h.total > 0) rep.latencyPasses += h
      }
      passes += 1
      if (b == nBatches) last = d
    }
    last
  }

  /** Rows of the streaming source: `seq, l, r, ins`. */
  def rowsOf(input: Array[StreamElement]): Array[(Long, Long, Long, Boolean)] =
    input.iterator.zipWithIndex.map { case (el, i) =>
      (i.toLong, el.edge.left, el.edge.right, el.isInsert)
    }.toArray

  /** One open-loop pass of `StructuredParAbacus` over the first `n` rows at
    * [[OpenRate]]. Rows are added in groups of [[OpenGroup]], each group when
    * its last row is due, so no row is offered early. A micro-batch commits
    * when its trigger ends: progress timestamp plus `triggerExecution`.
    */
  def openPass(spark: SparkSession, rows: Array[(Long, Long, Long, Boolean)], n: Int,
               k: Int, seed: Long, rep: Report,
               configure: org.apache.spark.sql.streaming.StreamingQuery => Unit = _ => ())
      : (OpenPass, ParAbacus) = {
    import spark.implicits._
    val pa = new ParAbacus(k, samplerSeed(seed), spark, parallelism)
    val source = MemoryStream[(Long, Long, Long, Boolean)](spark, parallelism)
    val query = StructuredParAbacus.start(source.toDF().toDF("seq", "l", "r", "ins"), pa)
    configure(query)
    val wallOffsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
    val gapNs = 1e9 / OpenRate
    val t0 = System.nanoTime() + 50000000L
    var lateMax = 0L
    try {
      val all = ArraySeq.unsafeWrapArray(rows)
      var lo = 0
      while (lo < n) {
        val hi = math.min(lo + OpenGroup, n)
        val due = t0 + ((hi - 1) * gapNs).toLong
        var now = System.nanoTime()
        while (now < due) { LockSupport.parkNanos(due - now); now = System.nanoTime() }
        source.addData(all.slice(lo, hi))
        lateMax = math.max(lateMax, System.nanoTime() - due)
        lo = hi
      }
      query.processAllAvailable()
    } finally query.stop()
    rep.check(query.exception.isEmpty, s"streaming query failed: ${query.exception}")
    val batches = query.recentProgress.toSeq.filter(_.numInputRows > 0).map { pr =>
      val startMs = Instant.parse(pr.timestamp).toEpochMilli
      val commitNs = (startMs + pr.durationMs.get("triggerExecution").longValue) * 1000000L -
        wallOffsetNs
      (pr.numInputRows, commitNs)
    }
    rep.check(batches.map(_._1).sum == n && pa.processed == n,
      s"streaming pass committed ${batches.map(_._1).sum} rows, counter saw ${pa.processed}, offered $n")
    (OpenPass(t0, OpenRate, n, math.min(OpenSettleRows, n / 2), batches, lateMax), pa)
  }

  /** Open loop: whole passes over the stream while they fit before the
    * deadline (at least one), final estimate checked against the reference.
    */
  def openLoop(spark: SparkSession, rep: Report, w: Workload, p: Prepared,
               rows: Array[(Long, Long, Long, Boolean)], seed: Long,
               deadline: Long): ParAbacus = {
    val passNs = (p.input.length / OpenRate * 1e9).toLong
    var last: ParAbacus = null
    while (last == null || System.nanoTime() + passNs < deadline) {
      val (pass, pa) = openPass(spark, rows, p.input.length, w.k, seed, rep)
      rep.openPasses += pass
      rep.check(close(pa.estimate, p.reference.last),
        s"streaming estimate ${pa.estimate} != plain ABACUS ${p.reference.last}")
      last = pa
    }
    last
  }

  /** Heap in use after a full collection, bytes; `keep` stays reachable.
    * Spark releases broadcast and RDD state asynchronously once a collection
    * has found it unreachable, so the lowest of three collections counts.
    */
  def liveHeap(keep: AnyRef): Long = {
    val used = (0 until 3).map { _ =>
      System.gc()
      Thread.sleep(200)
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    }.min
    java.lang.ref.Reference.reachabilityFence(keep)
    used
  }

  def gcMillis(): Long = {
    var s = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach(b => s += math.max(0L, b.getCollectionTime))
    s
  }

  def allocatedBytes(): Long = ManagementFactory.getThreadMXBean match {
    case t: com.sun.management.ThreadMXBean => t.getTotalThreadAllocatedBytes
    case _ => -1L
  }
}
