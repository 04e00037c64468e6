package repro.core

import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer

/** Per-partition result of the parallel counting phase.
  *
  * @param partition   partition (thread) index
  * @param partialCount sum of extrapolated per-edge counts c_i for the range
  * @param work        set-intersection probes performed (load metric, §VI-G)
  * @param edges       number of mini-batch edges the partition processed
  */
final case class PartitionCount(partition: Int, partialCount: Double,
                                work: Long, edges: Int) extends Serializable

/** PARABACUS (§V): the parallel mini-batch variant of ABACUS on Spark.
  *
  * Per mini-batch of M edges it:
  *  1. sequentially replays the Random Pairing updates on the driver to
  *     build a [[VersionedSampleSnapshot]] — the `{s,c_b,c_g}` triplet per
  *     version plus the sample-version *deltas* (O(M) time, O(k+M) space;
  *     Theorems 6, 7);
  *  2. broadcasts the snapshot and fans the per-edge butterfly counting out
  *     over `p` RDD partitions (the paper's p threads), each handling a
  *     contiguous equal-sized range of the batch against its own replayed
  *     sample versions;
  *  3. reduces the partial counts `c_0..c_{M-1}` into the running estimate.
  *
  * Version consolidation is implicit: the driver's sample was already
  * advanced to version M during step 1 and serves as S_0 of the next batch.
  *
  * Given the same (stream, k, seed), PARABACUS produces the same estimates
  * as [[Abacus]] (Theorem 5) up to floating-point summation order.
  *
  * @param numPartitions p, the parallelism of the counting phase
  */
final class ParAbacus(val k: Int, seed: Long, spark: SparkSession, val numPartitions: Int) {
  require(numPartitions >= 1, "need at least one partition")

  private val sample = new AdjacencySample
  private val rp = new RandomPairing(k, sample, new SplittableRandom(seed))
  private val sc = spark.sparkContext

  private var est: Double = 0.0
  private var processedCount: Long = 0L
  private val workByPartition = Array.fill(numPartitions)(0L)
  private val edgesByPartition = Array.fill(numPartitions)(0L)

  /** Current butterfly count estimate c. */
  def estimate: Double = est

  /** Elements processed so far. */
  def processed: Long = processedCount

  /** Current sample size |S|. */
  def sampleSize: Int = sample.size

  /** Cumulative set-intersection probes per partition across all batches —
    * the data behind the load-balance table (Fig. 10).
    */
  def workPerPartition: IndexedSeq[Long] = workByPartition.toIndexedSeq

  /** Cumulative edges processed per partition across all batches. */
  def edgesPerPartition: IndexedSeq[Long] = edgesByPartition.toIndexedSeq

  /** Process one mini-batch and return the per-partition results. */
  def processBatch(batch: IndexedSeq[StreamElement]): Seq[PartitionCount] = {
    if (batch.isEmpty) return Nil
    val m = batch.length

    // Phase 1 (sequential, driver): snapshot S_0, then build versions.
    val (baseLeft, baseRight) = sample.endpoints()
    val elemLeft = new Array[Long](m)
    val elemRight = new Array[Long](m)
    val elemIns = new Array[Boolean](m)
    val tEdges = new Array[Long](m)
    val tCb = new Array[Long](m)
    val tCg = new Array[Long](m)
    val dVer = ArrayBuffer.empty[Int]
    val dAdd = ArrayBuffer.empty[Boolean]
    val dLeft = ArrayBuffer.empty[Long]
    val dRight = ArrayBuffer.empty[Long]
    var i = 0
    while (i < m) {
      val el = batch(i)
      elemLeft(i) = el.edge.left; elemRight(i) = el.edge.right
      elemIns(i) = el.isInsert
      tEdges(i) = rp.streamEdgeCount; tCb(i) = rp.cb; tCg(i) = rp.cg
      // Updates of edge i become visible at version i+1.
      rp.apply(el).foreach { d =>
        dVer += i + 1
        dAdd += d.isInstanceOf[AddToSample]
        dLeft += d.edge.left
        dRight += d.edge.right
      }
      i += 1
    }
    val snap = VersionedSampleSnapshot(
      baseLeft, baseRight,
      dVer.toArray, dAdd.toArray, dLeft.toArray, dRight.toArray,
      elemLeft, elemRight, elemIns,
      tEdges, tCb, tCg, k)

    // Phase 2 (parallel): per-edge counting, edge i against version i.
    val bc = sc.broadcast(snap)
    val p = numPartitions
    val results: Array[PartitionCount] =
      try {
        sc.parallelize(0 until p, p)
          .map(pid => ParAbacus.countRange(bc.value, pid, p))
          .collect()
      } finally bc.destroy()

    // Phase 3: reduce partials in partition order (edge order overall).
    results.foreach { r =>
      est += r.partialCount
      workByPartition(r.partition) += r.work
      edgesByPartition(r.partition) += r.edges
    }
    processedCount += m
    results.toSeq
  }

  /** Process a whole stream in mini-batches of `miniBatchSize` edges. */
  def processAll(stream: Iterable[StreamElement], miniBatchSize: Int): Double = {
    stream.grouped(miniBatchSize).foreach(g => processBatch(g.toIndexedSeq))
    est
  }
}

object ParAbacus {

  /** Range of batch indices [lo, hi) owned by `pid` of `p` partitions —
    * contiguous, sizes differing by at most one ("p equal-sized sets").
    */
  def range(pid: Int, p: Int, m: Int): (Int, Int) =
    ((pid.toLong * m / p).toInt, ((pid + 1).toLong * m / p).toInt)

  /** Task body: count butterflies for the partition's edge range against
    * the replayed sample versions. Pure function of the snapshot — no RNG —
    * so the parallel phase is deterministic.
    */
  def countRange(snap: VersionedSampleSnapshot, pid: Int, p: Int): PartitionCount = {
    val (lo, hi) = range(pid, p, snap.batchSize)
    val replayer = new SampleReplayer(snap)
    var partial = 0.0
    var work = 0L
    var i = lo
    while (i < hi) {
      replayer.advanceTo(i)
      val r = ButterflyCounter.countForEdge(
        replayer.view, snap.elemLeft(i), snap.elemRight(i))
      work += r.work
      if (r.butterflies > 0) {
        val sign = if (snap.elemIsInsert(i)) 1 else -1
        partial += r.butterflies * DiscoveryProbability.increment(
          sign, snap.tripletEdges(i), snap.tripletCb(i), snap.tripletCg(i), snap.k)
      }
      i += 1
    }
    PartitionCount(pid, partial, work, hi - lo)
  }
}
