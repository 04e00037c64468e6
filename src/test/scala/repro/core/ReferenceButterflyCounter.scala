package repro.core

/** The set-based per-edge kernel that [[ButterflyCounter]] replaced, kept
  * as the reference its `(butterflies, work)` results are compared with.
  *
  * It counts against plain `Set` adjacency: the cheapest-side rule of
  * Algorithm 1 (line 7) picks the exploring endpoint, and each intersection
  * iterates the smaller neighbour set and probes the larger, one probe per
  * element of the smaller set.
  */
object ReferenceButterflyCounter {

  /** Left → right-neighbours and right → left-neighbours of an edge set. */
  final case class SetAdjacency(left: Map[Long, Set[Long]], right: Map[Long, Set[Long]]) {
    def leftNeighbors(u: Long): Set[Long] = left.getOrElse(u, Set.empty)
    def rightNeighbors(v: Long): Set[Long] = right.getOrElse(v, Set.empty)
  }

  object SetAdjacency {
    def of(edges: Iterable[Edge]): SetAdjacency = SetAdjacency(
      edges.groupBy(_.left).map { case (l, es) => l -> es.map(_.right).toSet },
      edges.groupBy(_.right).map { case (r, es) => r -> es.map(_.left).toSet })
  }

  def countForEdge(g: SetAdjacency, u: Long, v: Long): ButterflyCounter.Result = {
    val nu = g.leftNeighbors(u)
    val nv = g.rightNeighbors(v)
    if (nu.isEmpty || nv.isEmpty) return ButterflyCounter.Result(0L, 0L)
    val cumU = nu.toSeq.map(w => g.rightNeighbors(w).size.toLong).sum
    val cumV = nv.toSeq.map(x => g.leftNeighbors(x).size.toLong).sum
    val counts =
      if (cumU <= cumV) (nu - v).toSeq.map(w => intersect(g.rightNeighbors(w), nv, exclude = u))
      else (nv - u).toSeq.map(x => intersect(g.leftNeighbors(x), nu, exclude = v))
    ButterflyCounter.Result(counts.map(_._1).sum, counts.map(_._2).sum)
  }

  /** (|a ∩ b \ {exclude}|, probes): iterates the smaller set, probes the larger. */
  private def intersect(a: Set[Long], b: Set[Long], exclude: Long): (Long, Long) = {
    val (small, large) = if (a.size <= b.size) (a, b) else (b, a)
    (small.count(x => x != exclude && large.contains(x)).toLong, small.size.toLong)
  }
}
