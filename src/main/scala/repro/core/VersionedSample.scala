package repro.core

/** The `{s, c_b, c_g}` triplet cached with each sample version (§V-A):
  * the live stream edge count and the RP compensation counters at the
  * moment the version was created. PARABACUS computes each edge's
  * increment (Eq. 1) from its version's triplet.
  */
final case class VersionTriplet(streamEdges: Long, cb: Long, cg: Long) extends Serializable

/** Immutable, broadcastable versioned sample for one mini-batch (§V-A).
  *
  * Version `i` (0 ≤ i < M) is the sample state the i-th edge of the
  * mini-batch observes: the base sample S_0 (state at batch start) plus
  * every delta produced by the RP updates of edges 0..i−1. Only the
  * *discrepancies* between versions are stored: delta `j` is visible from
  * version `deltaVersion(j)` onward; deltas are in creation order, so the
  * versions are non-decreasing.
  *
  * Everything is held in parallel primitive arrays — the snapshot is
  * broadcast once per mini-batch and boxed per-element serialization was
  * the dominant PARABACUS overhead.
  */
final case class VersionedSampleSnapshot(
    // sample version S_0
    baseLeft: Array[Long], baseRight: Array[Long],
    // ordered sample deltas: visible-from version, add/remove flag, edge
    deltaVersion: Array[Int], deltaIsAdd: Array[Boolean],
    deltaLeft: Array[Long], deltaRight: Array[Long],
    // the mini-batch elements, in arrival order
    elemLeft: Array[Long], elemRight: Array[Long], elemIsInsert: Array[Boolean],
    // per-version {s, c_b, c_g} triplets
    tripletEdges: Array[Long], tripletCb: Array[Long], tripletCg: Array[Long],
    k: Int,
) extends Serializable {
  /** Mini-batch size M. */
  def batchSize: Int = elemLeft.length

  /** S_0 as an adjacency sample, built from `baseLeft`/`baseRight` on first
    * use and not serialized: a JVM builds it at most once per snapshot, and
    * the tasks of one JVM share it (each replays on its own
    * [[AdjacencySample.copy]]). It has room for min(k, 2·|S_0|) edges, so
    * replaying a sample that is already full grows no table.
    */
  @transient lazy val base: AdjacencySample =
    AdjacencySample.of(baseLeft, baseRight, math.min(k, 2 * baseLeft.length))

  /** Triplet observed by mini-batch edge `i` (for reporting/tests). */
  def triplet(i: Int): VersionTriplet =
    VersionTriplet(tripletEdges(i), tripletCb(i), tripletCg(i))
}

/** Forward-only reconstruction of sample versions from a snapshot.
  *
  * Starts from a copy of the snapshot's shared S_0 (array clones, O(k)) and
  * then applies stored deltas in order, exposing the current version. Each
  * PARABACUS task owns one replayer for its contiguous range of edges, so a
  * task pays O(k + M) to reconstruct and then walks versions incrementally.
  */
final class SampleReplayer(snap: VersionedSampleSnapshot) {
  private val adj: AdjacencySample = snap.base.copy()

  private var deltaIdx = 0

  /** Advance to version `v`: apply every delta visible from ≤ v. Versions
    * can only move forward.
    */
  def advanceTo(v: Int): Unit = {
    while (deltaIdx < snap.deltaVersion.length && snap.deltaVersion(deltaIdx) <= v) {
      val l = snap.deltaLeft(deltaIdx)
      val r = snap.deltaRight(deltaIdx)
      if (snap.deltaIsAdd(deltaIdx)) adj.addEdge(l, r) else adj.removeEdge(l, r)
      deltaIdx += 1
    }
  }

  /** The currently materialised version. */
  def view: AdjacencySample = adj
}
