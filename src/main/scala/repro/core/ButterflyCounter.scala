package repro.core

/** Per-edge butterfly counting (Algorithm 1, lines 7–11).
  *
  * For an incoming edge `{u, v}` (u ∈ L, v ∈ R) it counts the butterflies
  * that `{u, v}` forms with the edges of an [[AdjacencySample]]: every
  * butterfly `{u, v, x, w}` (x ∈ L, w ∈ R) discovered requires the three
  * sample edges `{u, w}`, `{x, w}`, `{x, v}`.
  *
  * The *cheapest side* heuristic (line 7) picks the endpoint whose
  * sample-neighbours have the smaller cumulative degree and drives the set
  * intersections from there; each intersection iterates the smaller of the
  * two neighbour lists and probes the larger one's owner in the sample's
  * edge index, so its cost is the size of the smaller list.
  */
object ButterflyCounter {

  /** Count of butterflies found plus the work (membership probes) spent. */
  final case class Result(butterflies: Long, work: Long)

  private val Zero = Result(0L, 0L)

  /** Count the butterflies the edge `{u, v}` forms with the sample.
    *
    * Handles both insertions and deletions: for a deletion the edge itself
    * may still be present in the sample, so the endpoints `u`/`v` are
    * excluded from the neighbour sets during intersection (the paper's
    * running example excludes `u` explicitly).
    */
  def countForEdge(s: AdjacencySample, u: Long, v: Long): Result = {
    val us = s.leftSlot(u)
    val vs = s.rightSlot(v)
    if (us < 0 || vs < 0) return Zero

    // Σ_{w ∈ N_u} d_w and Σ_{x ∈ N_v} d_x (line 7).
    var cumU = 0L
    var p = s.leftHeadAt(us)
    while (p >= 0) { cumU += s.rightDegree(s.rightAt(p)); p = s.nextOfLeft(p) }
    var cumV = 0L
    p = s.rightHeadAt(vs)
    while (p >= 0) { cumV += s.leftDegree(s.leftAt(p)); p = s.nextOfRight(p) }

    var found = 0L
    var work = 0L
    if (cumU <= cumV) {
      // Explore w ∈ N_u \ {v}; intersect N_w with N_v, excluding u.
      val dv = s.rightDegreeAt(vs)
      p = s.leftHeadAt(us)
      while (p >= 0) {
        val w = s.rightAt(p)
        if (w != v) {
          val ws = s.rightSlot(w)
          val dw = s.rightDegreeAt(ws)
          // Iterate the smaller list, probe the other vertex's edges.
          var q = if (dw <= dv) s.rightHeadAt(ws) else s.rightHeadAt(vs)
          val other = if (dw <= dv) v else w
          while (q >= 0) {
            val x = s.leftAt(q)
            if (x != u && s.contains(x, other)) found += 1
            q = s.nextOfRight(q)
          }
          work += math.min(dw, dv)
        }
        p = s.nextOfLeft(p)
      }
    } else {
      // Symmetric: explore x ∈ N_v \ {u}; intersect N_x with N_u, excluding v.
      val du = s.leftDegreeAt(us)
      p = s.rightHeadAt(vs)
      while (p >= 0) {
        val x = s.leftAt(p)
        if (x != u) {
          val xs = s.leftSlot(x)
          val dx = s.leftDegreeAt(xs)
          var q = if (dx <= du) s.leftHeadAt(xs) else s.leftHeadAt(us)
          val other = if (dx <= du) u else x
          while (q >= 0) {
            val w = s.rightAt(q)
            if (w != v && s.contains(other, w)) found += 1
            q = s.nextOfLeft(q)
          }
          work += math.min(dx, du)
        }
        p = s.nextOfRight(p)
      }
    }
    Result(found, work)
  }
}
