package repro.core

/** A mutation applied to the graph sample S.
  *
  * Random Pairing emits these so that PARABACUS can record the
  * *discrepancies* between consecutive sample versions (§V-A) instead of
  * materialising every version.
  */
sealed trait SampleDelta extends Serializable { def edge: Edge }
final case class AddToSample(edge: Edge)      extends SampleDelta
final case class RemoveFromSample(edge: Edge) extends SampleDelta

/** Mutable bipartite edge sample stored as adjacency lists (the paper stores
  * sampled edges "using the adjacency list format", §VI-A), in flat
  * primitive arrays only:
  *
  *  - the sampled edges sit densely at positions `0 until size` of
  *    `eLeft`/`eRight`; removal swaps the last edge into the hole, so
  *    Random Pairing's "replace a random edge" (Algorithm 2, line 6) is O(1);
  *  - an open-addressing edge index maps `(left, right)` to the edge's
  *    position (linear probing, backward-shift deletion);
  *  - one open-addressing vertex map per side holds each vertex's degree and
  *    the head of its neighbour list. A vertex whose degree drops to 0
  *    leaves its map;
  *  - the neighbour lists are doubly linked through the edge positions
  *    (`nextL`/`prevL` chain the edges of a left vertex, `nextR`/`prevR`
  *    those of a right vertex), so an edge is linked into both lists
  *    without a node of its own.
  *
  * [[copy]] clones the arrays and nothing else, which is how PARABACUS
  * tasks obtain their private replica of the shared base sample S_0.
  */
final class AdjacencySample private (
    private var eLeft: Array[Long], private var eRight: Array[Long],
    private var nextL: Array[Int], private var prevL: Array[Int],
    private var nextR: Array[Int], private var prevR: Array[Int],
    private var n: Int,
    // edge index: slot holds (edge position + 1), 0 marks an empty slot
    private var index: Array[Int],
    private val lefts: AdjacencySample.VertexMap,
    private val rights: AdjacencySample.VertexMap,
) {
  import AdjacencySample._

  /** An empty sample with room for `capacity` edges (and `capacity / 2`
    * vertices per side) before any table grows.
    */
  private def this(capacity: Int) = this(
    new Array[Long](capacity), new Array[Long](capacity),
    new Array[Int](capacity), new Array[Int](capacity),
    new Array[Int](capacity), new Array[Int](capacity),
    0, new Array[Int](AdjacencySample.tableSize(capacity)),
    new AdjacencySample.VertexMap(AdjacencySample.tableSize(capacity / 2)),
    new AdjacencySample.VertexMap(AdjacencySample.tableSize(capacity / 2)))

  def this() = this(16)

  /** Number of edges currently in the sample (|S|). */
  def size: Int = n

  /** Whether edge `{l, r}` is currently sampled. */
  def contains(l: Long, r: Long): Boolean = indexSlot(l, r) >= 0

  /** Whether edge `e` is currently sampled. */
  def contains(e: Edge): Boolean = contains(e.left, e.right)

  /** Degree of left vertex `u` in the sample (0 if absent). */
  def leftDegree(u: Long): Int = lefts.degree(u)

  /** Degree of right vertex `v` in the sample (0 if absent). */
  def rightDegree(v: Long): Int = rights.degree(v)

  /** Right-partition neighbours of left vertex `u`, as a live read-only view
    * of the sample (it follows later mutations; nothing is copied).
    */
  def leftNeighbors(u: Long): collection.Set[Long] = new Neighbors(this, u, isLeft = true)

  /** Left-partition neighbours of right vertex `v`, as a live read-only view. */
  def rightNeighbors(v: Long): collection.Set[Long] = new Neighbors(this, v, isLeft = false)

  /** Add edge `e`; returns the delta applied. `e` must not be present. */
  def add(e: Edge): SampleDelta = {
    addEdge(e.left, e.right)
    AddToSample(e)
  }

  /** Remove edge `e`; returns the delta applied. `e` must be present. */
  def remove(e: Edge): SampleDelta = {
    removeEdge(e.left, e.right)
    RemoveFromSample(e)
  }

  /** Add edge `{l, r}`, which must not be present. */
  def addEdge(l: Long, r: Long): Unit = {
    if (n == eLeft.length) growEdges()
    if (2 * (n + 1) > index.length) rebuildIndex(2 * index.length)
    val found = indexSlot(l, r)
    require(found < 0, s"edge ${Edge(l, r)} already in sample")
    val p = n
    n += 1
    eLeft(p) = l; eRight(p) = r
    index(-found - 1) = p + 1
    val ls = lefts.slotForInsert(l)
    val lh = lefts.head(ls)
    nextL(p) = lh; prevL(p) = -1
    if (lh >= 0) prevL(lh) = p
    lefts.head(ls) = p; lefts.deg(ls) += 1
    val rs = rights.slotForInsert(r)
    val rh = rights.head(rs)
    nextR(p) = rh; prevR(p) = -1
    if (rh >= 0) prevR(rh) = p
    rights.head(rs) = p; rights.deg(rs) += 1
  }

  /** Remove edge `{l, r}`, which must be present. The last edge moves into
    * the freed position, as with the dense edge order of [[randomEdge]].
    */
  def removeEdge(l: Long, r: Long): Unit = {
    val s = indexSlot(l, r)
    if (s < 0) sys.error(s"edge ${Edge(l, r)} not in sample")
    val p = index(s) - 1
    indexDelete(s)
    // Unlink p from the list of its left and its right vertex.
    val ls = lefts.slotOf(l)
    if (prevL(p) >= 0) nextL(prevL(p)) = nextL(p) else lefts.head(ls) = nextL(p)
    if (nextL(p) >= 0) prevL(nextL(p)) = prevL(p)
    lefts.decrement(ls)
    val rs = rights.slotOf(r)
    if (prevR(p) >= 0) nextR(prevR(p)) = nextR(p) else rights.head(rs) = nextR(p)
    if (nextR(p) >= 0) prevR(nextR(p)) = prevR(p)
    rights.decrement(rs)
    // Swap-remove: the last edge takes position p.
    n -= 1
    val last = n
    if (p < last) {
      val ll = eLeft(last)
      val lr = eRight(last)
      eLeft(p) = ll; eRight(p) = lr
      index(indexSlot(ll, lr)) = p + 1
      nextL(p) = nextL(last); prevL(p) = prevL(last)
      if (prevL(p) >= 0) nextL(prevL(p)) = p else lefts.head(lefts.slotOf(ll)) = p
      if (nextL(p) >= 0) prevL(nextL(p)) = p
      nextR(p) = nextR(last); prevR(p) = prevR(last)
      if (prevR(p) >= 0) nextR(prevR(p)) = p else rights.head(rights.slotOf(lr)) = p
      if (nextR(p) >= 0) prevR(nextR(p)) = p
    }
  }

  /** A uniformly random sampled edge (for RP's replacement step). */
  def randomEdge(rng: java.util.SplittableRandom): Edge = {
    val p = rng.nextInt(n)
    Edge(eLeft(p), eRight(p))
  }

  /** Immutable snapshot of the sampled edges, in dense order. */
  def snapshotEdges(): Array[Edge] = Array.tabulate(n)(p => Edge(eLeft(p), eRight(p)))

  /** The left and the right endpoints of the sampled edges, in dense order. */
  def endpoints(): (Array[Long], Array[Long]) =
    (java.util.Arrays.copyOf(eLeft, n), java.util.Arrays.copyOf(eRight, n))

  /** An independent sample with the same edges, in the same dense order. */
  def copy(): AdjacencySample = new AdjacencySample(
    eLeft.clone(), eRight.clone(), nextL.clone(), prevL.clone(),
    nextR.clone(), prevR.clone(), n, index.clone(), lefts.copy(), rights.copy())

  // --- primitive access for ButterflyCounter --------------------------------

  /** Vertex-map slot of left vertex `u`, or -1 if it has no sampled edge. */
  private[core] def leftSlot(u: Long): Int = lefts.slotOf(u)
  private[core] def rightSlot(v: Long): Int = rights.slotOf(v)
  private[core] def leftDegreeAt(slot: Int): Int = lefts.deg(slot)
  private[core] def rightDegreeAt(slot: Int): Int = rights.deg(slot)
  /** First edge position of the vertex at `slot`; -1 ends a list. */
  private[core] def leftHeadAt(slot: Int): Int = lefts.head(slot)
  private[core] def rightHeadAt(slot: Int): Int = rights.head(slot)
  /** Next edge position in the list of the left / right endpoint of `p`. */
  private[core] def nextOfLeft(p: Int): Int = nextL(p)
  private[core] def nextOfRight(p: Int): Int = nextR(p)
  private[core] def leftAt(p: Int): Long = eLeft(p)
  private[core] def rightAt(p: Int): Long = eRight(p)

  // --- edge index ------------------------------------------------------------

  /** Slot of edge `{l, r}` in `index`; if absent, `-(e + 1)` for the empty
    * slot `e` where it would go.
    */
  private def indexSlot(l: Long, r: Long): Int = {
    val mask = index.length - 1
    var s = edgeHash(l, r) & mask
    var q = index(s)
    while (q != 0 && (eLeft(q - 1) != l || eRight(q - 1) != r)) {
      s = (s + 1) & mask
      q = index(s)
    }
    if (q == 0) -s - 1 else s
  }

  /** Empty slot `s`, shifting later entries of its probe run back into it. */
  private def indexDelete(s0: Int): Unit = {
    val mask = index.length - 1
    var hole = s0
    var s = (s0 + 1) & mask
    while (index(s) != 0) {
      val q = index(s) - 1
      val home = edgeHash(eLeft(q), eRight(q)) & mask
      // The entry may fill the hole unless its home lies cyclically in (hole, s].
      if (((s - home) & mask) >= ((s - hole) & mask)) {
        index(hole) = index(s)
        hole = s
      }
      s = (s + 1) & mask
    }
    index(hole) = 0
  }

  private def rebuildIndex(capacity: Int): Unit = {
    index = new Array[Int](capacity)
    val mask = capacity - 1
    var p = 0
    while (p < n) {
      var s = edgeHash(eLeft(p), eRight(p)) & mask
      while (index(s) != 0) s = (s + 1) & mask
      index(s) = p + 1
      p += 1
    }
  }

  private def growEdges(): Unit = {
    val c = 2 * eLeft.length
    eLeft = java.util.Arrays.copyOf(eLeft, c)
    eRight = java.util.Arrays.copyOf(eRight, c)
    nextL = java.util.Arrays.copyOf(nextL, c)
    prevL = java.util.Arrays.copyOf(prevL, c)
    nextR = java.util.Arrays.copyOf(nextR, c)
    prevR = java.util.Arrays.copyOf(prevR, c)
  }
}

object AdjacencySample {

  /** A sample holding the edges `{left(i), right(i)}` in this order, with
    * room for `capacity` edges.
    */
  def of(left: Array[Long], right: Array[Long], capacity: Int): AdjacencySample = {
    val a = new AdjacencySample(math.max(16, math.max(capacity, left.length)))
    var i = 0
    while (i < left.length) {
      a.addEdge(left(i), right(i))
      i += 1
    }
    a
  }

  /** Smallest power-of-two table length that `entries` fill at most half. */
  private def tableSize(entries: Int): Int =
    Integer.highestOneBit(math.max(32, 2 * entries) - 1) << 1

  /** Murmur3's 64-bit finaliser: spreads every input bit over the low bits
    * the tables mask with.
    */
  private def mix(x0: Long): Long = {
    var x = x0
    x = (x ^ (x >>> 33)) * 0xff51afd7ed558ccdL
    x = (x ^ (x >>> 33)) * 0xc4ceb9fe1a85ec53L
    x ^ (x >>> 33)
  }

  private def edgeHash(l: Long, r: Long): Int =
    mix(l * 0x9E3779B97F4A7C15L + r).toInt

  private def vertexHash(v: Long): Int = mix(v).toInt

  /** Open-addressing map from vertex id to degree and neighbour-list head.
    * A slot is free iff its degree is 0: a vertex with no sampled edge is
    * never stored.
    */
  private final class VertexMap(var keys: Array[Long], var deg: Array[Int],
                                var head: Array[Int], var count: Int) {
    def this(slots: Int) = this(new Array[Long](slots), new Array[Int](slots), new Array[Int](slots), 0)

    def copy(): VertexMap = new VertexMap(keys.clone(), deg.clone(), head.clone(), count)

    def slotOf(v: Long): Int = {
      val mask = keys.length - 1
      var s = vertexHash(v) & mask
      while (deg(s) != 0) {
        if (keys(s) == v) return s
        s = (s + 1) & mask
      }
      -1
    }

    def degree(v: Long): Int = {
      val s = slotOf(v)
      if (s < 0) 0 else deg(s)
    }

    /** Slot of `v`, claiming a free one (degree 0, empty list) if absent. */
    def slotForInsert(v: Long): Int = {
      if (2 * (count + 1) > keys.length) grow()
      val mask = keys.length - 1
      var s = vertexHash(v) & mask
      while (deg(s) != 0) {
        if (keys(s) == v) return s
        s = (s + 1) & mask
      }
      keys(s) = v; head(s) = -1
      count += 1
      s
    }

    /** Lower the degree at `slot`; a vertex reaching 0 leaves the map. */
    def decrement(slot: Int): Unit = {
      deg(slot) -= 1
      if (deg(slot) == 0) {
        count -= 1
        val mask = keys.length - 1
        var hole = slot
        var s = (slot + 1) & mask
        while (deg(s) != 0) {
          val home = vertexHash(keys(s)) & mask
          if (((s - home) & mask) >= ((s - hole) & mask)) {
            keys(hole) = keys(s); deg(hole) = deg(s); head(hole) = head(s)
            hole = s
          }
          s = (s + 1) & mask
        }
        deg(hole) = 0
      }
    }

    private def grow(): Unit = {
      val oldKeys = keys
      val oldDeg = deg
      val oldHead = head
      val c = 2 * oldKeys.length
      keys = new Array[Long](c); deg = new Array[Int](c); head = new Array[Int](c)
      val mask = c - 1
      var i = 0
      while (i < oldKeys.length) {
        if (oldDeg(i) != 0) {
          var s = vertexHash(oldKeys(i)) & mask
          while (deg(s) != 0) s = (s + 1) & mask
          keys(s) = oldKeys(i); deg(s) = oldDeg(i); head(s) = oldHead(i)
        }
        i += 1
      }
    }
  }

  /** Live read-only neighbour set of one vertex; size and emptiness are one
    * vertex-map lookup, membership one edge-index lookup.
    */
  private final class Neighbors(s: AdjacencySample, vertex: Long, isLeft: Boolean)
      extends collection.AbstractSet[Long] {
    override def size: Int = if (isLeft) s.leftDegree(vertex) else s.rightDegree(vertex)
    override def isEmpty: Boolean = size == 0

    def contains(w: Long): Boolean =
      if (isLeft) s.contains(vertex, w) else s.contains(w, vertex)

    def iterator: Iterator[Long] = new Iterator[Long] {
      private var p = {
        val slot = if (isLeft) s.leftSlot(vertex) else s.rightSlot(vertex)
        if (slot < 0) -1 else if (isLeft) s.leftHeadAt(slot) else s.rightHeadAt(slot)
      }
      def hasNext: Boolean = p >= 0
      def next(): Long = {
        if (p < 0) throw new NoSuchElementException("no more neighbours")
        val w = if (isLeft) s.rightAt(p) else s.leftAt(p)
        p = if (isLeft) s.nextOfLeft(p) else s.nextOfRight(p)
        w
      }
    }

    def diff(that: collection.Set[Long]): collection.Set[Long] =
      iterator.filterNot(that.contains).toSet
  }
}
