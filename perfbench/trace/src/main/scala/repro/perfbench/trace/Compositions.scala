package repro.perfbench.trace

import java.util.SplittableRandom
import scala.collection.mutable.ArrayBuffer
import repro.core._

/** ABACUS (Algorithm 1) recomposed from its layers, in the order
  * [[Abacus.process]] calls them, with each layer call timed. Its estimate
  * must equal a plain [[Abacus]] run bit for bit.
  */
final class TracedAbacus(k: Int, seed: Long) {
  private val sample = new AdjacencySample
  private val rp = new RandomPairing(k, sample, new SplittableRandom(seed))
  val counter = new Layer
  val pairing = new Layer
  var probes = 0L
  var butterflies = 0L
  var empties = 0L
  var deltas = 0L
  var estimate = 0.0

  def process(el: StreamElement): Unit = {
    val u = el.edge.left
    val v = el.edge.right
    if (sample.leftNeighbors(u).isEmpty || sample.rightNeighbors(v).isEmpty) empties += 1
    val t0 = System.nanoTime()
    val r = ButterflyCounter.countForEdge(sample, u, v)
    val t1 = System.nanoTime()
    counter.add(t1 - t0)
    probes += r.work
    butterflies += r.butterflies
    if (r.butterflies > 0)
      estimate += r.butterflies * DiscoveryProbability.increment(
        el.sign, rp.streamEdgeCount, rp.cb, rp.cg, k)
    val t2 = System.nanoTime()
    deltas += rp.apply(el).size
    pairing.add(System.nanoTime() - t2)
  }
}

/** Phase 1 of [[ParAbacus.processBatch]] recomposed from
  * [[RandomPairing.apply]]: snapshot S_0, then replay the Random Pairing
  * updates of the batch, recording the `{s, c_b, c_g}` triplet and the
  * sample deltas of every version.
  */
final class TracedPhase1(k: Int, seed: Long) {
  private val sample = new AdjacencySample
  private val rp = new RandomPairing(k, sample, new SplittableRandom(seed))
  val pairing = new Layer
  var deltas = 0L

  def snapshot(batch: IndexedSeq[StreamElement]): VersionedSampleSnapshot = {
    val m = batch.length
    val baseEdges = sample.snapshotEdges()
    val baseLeft = baseEdges.map(_.left)
    val baseRight = baseEdges.map(_.right)
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
      val t0 = System.nanoTime()
      val ds = rp.apply(el)
      pairing.add(System.nanoTime() - t0)
      ds.foreach { d =>
        dVer += i + 1
        dAdd += d.isInstanceOf[AddToSample]
        dLeft += d.edge.left
        dRight += d.edge.right
      }
      deltas += ds.size
      i += 1
    }
    VersionedSampleSnapshot(baseLeft, baseRight,
      dVer.toArray, dAdd.toArray, dLeft.toArray, dRight.toArray,
      elemLeft, elemRight, elemIns, tEdges, tCb, tCg, k)
  }
}

/** What one traced PARABACUS task did. Times are `System.nanoTime` of the
  * task's thread: `start`, end of the replay of S_0, `end`.
  */
final case class TaskTrace(pid: Int, partial: Double, work: Long, edges: Int,
                           start: Long, baseReplayed: Long, end: Long,
                           advanceNs: Long, counterNs: Long, counterCalls: Long,
                           probes: Long, butterflies: Long, empties: Long)

object TracedTask {
  /** [[ParAbacus.countRange]] recomposed from [[SampleReplayer]] and
    * [[ButterflyCounter]], timing the replay of S_0, each version advance
    * and each count. Its partial count must equal the real task's bit for bit.
    */
  def countRange(snap: VersionedSampleSnapshot, pid: Int, p: Int): TaskTrace = {
    val start = System.nanoTime()
    val (lo, hi) = ParAbacus.range(pid, p, snap.batchSize)
    val replayer = new SampleReplayer(snap)
    val baseReplayed = System.nanoTime()
    var partial = 0.0
    var work = 0L
    var advanceNs = 0L
    var counterNs = 0L
    var butterflies = 0L
    var empties = 0L
    var i = lo
    while (i < hi) {
      val a0 = System.nanoTime()
      replayer.advanceTo(i)
      val a1 = System.nanoTime()
      advanceNs += a1 - a0
      val view = replayer.view
      val u = snap.elemLeft(i)
      val v = snap.elemRight(i)
      if (view.leftNeighbors(u).isEmpty || view.rightNeighbors(v).isEmpty) empties += 1
      val c0 = System.nanoTime()
      val r = ButterflyCounter.countForEdge(view, u, v)
      counterNs += System.nanoTime() - c0
      work += r.work
      butterflies += r.butterflies
      if (r.butterflies > 0) {
        val sign = if (snap.elemIsInsert(i)) 1 else -1
        partial += r.butterflies * DiscoveryProbability.increment(
          sign, snap.tripletEdges(i), snap.tripletCb(i), snap.tripletCg(i), snap.k)
      }
      i += 1
    }
    TaskTrace(pid, partial, work, hi - lo, start, baseReplayed, System.nanoTime(),
      advanceNs, counterNs, hi - lo, work, butterflies, empties)
  }
}
