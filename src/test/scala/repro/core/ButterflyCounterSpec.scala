package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class ButterflyCounterSpec extends AnyFunSuite {

  private def viewOf(edges: Iterable[Edge]): AdjacencySample = {
    val s = new AdjacencySample
    edges.foreach(s.add)
    s
  }

  test("empty view yields zero butterflies and zero work") {
    val r = ButterflyCounter.countForEdge(new AdjacencySample, 1L, 2L)
    assert(r === ButterflyCounter.Result(0L, 0L))
  }

  test("running example of Fig. 1b finds exactly one butterfly") {
    val s = viewOf(TestGraphs.Fig1b.sampleEdges)
    val r = ButterflyCounter.countForEdge(s, TestGraphs.Fig1b.u, TestGraphs.Fig1b.v)
    assert(r.butterflies === TestGraphs.Fig1b.expectedButterflies)
  }

  test("single wedge is not a butterfly") {
    // Sample: (1,10), (2,10). Incoming (1, 20): needs (2,20) to close.
    val s = viewOf(Seq(Edge(1L, 10L), Edge(2L, 10L)))
    assert(ButterflyCounter.countForEdge(s, 1L, 20L).butterflies === 0L)
  }

  test("three sides of a square complete to one butterfly") {
    val s = viewOf(Seq(Edge(1L, 10L), Edge(2L, 10L), Edge(2L, 20L)))
    assert(ButterflyCounter.countForEdge(s, 1L, 20L).butterflies === 1L)
  }

  test("each incoming K_{a,b} edge closes C(a-1,1)*C(b-1,1) butterflies when the rest is present") {
    for (a <- 2 to 5; b <- 2 to 5) {
      val all = TestGraphs.completeBipartite(a, b).map { case (l, r) => Edge(l, r) }
      val incoming = all.head
      val s = viewOf(all.tail)
      val r = ButterflyCounter.countForEdge(s, incoming.left, incoming.right)
      assert(r.butterflies === (a - 1).toLong * (b - 1),
        s"K_$a,$b: got ${r.butterflies}")
    }
  }

  test("deletion case: edge present in the view does not corrupt the count") {
    // Full K_{3,3} in view; counting for edge (1,1) while it is resident
    // must still report the 4 butterflies containing it.
    val s = viewOf(TestGraphs.completeBipartite(3, 3).map { case (l, r) => Edge(l, r) })
    val r = ButterflyCounter.countForEdge(s, 1L, 1L)
    assert(r.butterflies === 4L)
  }

  test("count is symmetric in the exploration side") {
    // Force each side to be cheaper in turn by skewing degrees.
    val edges = Seq(
      Edge(1L, 10L), Edge(1L, 11L), Edge(1L, 12L),
      Edge(2L, 10L), Edge(2L, 11L),
      Edge(3L, 10L))
    val s = viewOf(edges)
    // Butterflies formed with incoming (3, 11): needs x with (x,11),(x,10):
    // x ∈ {1, 2} → 2 butterflies.
    assert(ButterflyCounter.countForEdge(s, 3L, 11L).butterflies === 2L)
    // Mirror the graph to flip which side is cheaper; count must mirror.
    val mirrored = viewOf(edges.map(e => Edge(e.right, e.left)))
    assert(ButterflyCounter.countForEdge(mirrored, 11L, 3L).butterflies === 2L)
  }

  test("work accounting is positive whenever sets are intersected") {
    val s = viewOf(Seq(Edge(1L, 10L), Edge(2L, 10L), Edge(2L, 20L)))
    val r = ButterflyCounter.countForEdge(s, 1L, 20L)
    assert(r.work > 0L)
  }

  test("work is zero when an endpoint has no sampled neighbours") {
    val s = viewOf(Seq(Edge(1L, 10L)))
    assert(ButterflyCounter.countForEdge(s, 5L, 20L).work === 0L)
  }

  test("disjoint butterflies not containing the edge are not counted") {
    // K_{2,2} on {5,6}×{50,60} plus a lone wedge at the incoming edge.
    val s = viewOf(Seq(Edge(5L, 50L), Edge(5L, 60L), Edge(6L, 50L), Edge(6L, 60L),
      Edge(1L, 10L)))
    assert(ButterflyCounter.countForEdge(s, 1L, 20L).butterflies === 0L)
  }

  test("matches brute force on random samples") {
    (1 to 30).foreach { trial =>
      val edges = TestGraphs.randomEdges(8, 8, 20, trial.toLong)
        .map { case (l, r) => Edge(l, r) }
      val s = viewOf(edges)
      val incoming = Edge(100L, 200L) // fresh vertices never collide
      // Brute force: x,w with (x,w),(x,v),(u,w) … u=incoming.left etc.
      def brute(u: Long, v: Long): Long = {
        val es = edges.toSet
        val ls = edges.map(_.left).distinct
        val rs = edges.map(_.right).distinct
        (for {
          x <- ls if x != u
          w <- rs if w != v
          if es(Edge(x, w)) && es(Edge(x, v)) && es(Edge(u, w))
        } yield 1).size.toLong
      }
      // Try several incoming edges touching existing vertices.
      val probes = Seq(
        (edges.head.left, edges.last.right),
        (edges.last.left, edges.head.right),
        (incoming.left, incoming.right))
      probes.foreach { case (u, v) =>
        if (!s.contains(Edge(u, v))) {
          assert(ButterflyCounter.countForEdge(s, u, v).butterflies === brute(u, v),
            s"trial $trial incoming ($u,$v)")
        }
      }
    }
  }

  test("(butterflies, work) equals the set-based reference kernel on random graphs") {
    (1 to 40).foreach { trial =>
      val rng = new java.util.SplittableRandom(700L + trial)
      val nL = 3 + rng.nextInt(14)
      val nR = 3 + rng.nextInt(14)
      val m = 1 + rng.nextInt(nL * nR)
      val edges = TestGraphs.randomEdges(nL, nR, m, trial.toLong).map { case (l, r) => Edge(l, r) }
      // Remove a random part again, so swap-removes have reordered the sample.
      val s = viewOf(edges)
      val removed = edges.filter(_ => rng.nextInt(4) == 0)
      removed.foreach(s.remove)
      val ref = ReferenceButterflyCounter.SetAdjacency.of(edges.toSet -- removed)
      // Every pair over the vertex ranges plus unseen vertices: resident
      // edges are the deletion case, absent ones the insertion case.
      for (u <- 0L to nL + 1L; v <- 0L to nR + 1L) {
        assert(ButterflyCounter.countForEdge(s, u, v) ===
          ReferenceButterflyCounter.countForEdge(ref, u, v), s"trial $trial edge ($u,$v)")
      }
    }
  }
}
