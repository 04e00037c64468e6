package repro.core

import org.scalatest.funsuite.AnyFunSuite

class AdjacencySampleSpec extends AnyFunSuite {

  private def sampleWith(edges: (Long, Long)*): AdjacencySample = {
    val s = new AdjacencySample
    edges.foreach { case (l, r) => s.add(Edge(l, r)) }
    s
  }

  test("empty sample has size 0 and empty neighbour sets") {
    val s = new AdjacencySample
    assert(s.size === 0)
    assert(s.leftNeighbors(1L).isEmpty)
    assert(s.rightNeighbors(1L).isEmpty)
    assert(s.leftDegree(5L) === 0)
    assert(s.rightDegree(5L) === 0)
  }

  test("add maintains both adjacency directions") {
    val s = sampleWith((1L, 2L))
    assert(s.leftNeighbors(1L) === Set(2L))
    assert(s.rightNeighbors(2L) === Set(1L))
    assert(s.size === 1)
    assert(s.contains(Edge(1L, 2L)))
  }

  test("left and right vertex ID spaces are independent") {
    val s = sampleWith((7L, 7L))
    assert(s.leftNeighbors(7L) === Set(7L))
    assert(s.rightNeighbors(7L) === Set(7L))
    assert(!s.contains(Edge(7L, 8L)))
  }

  test("remove deletes from both directions and drops empty vertices") {
    val s = sampleWith((1L, 2L), (1L, 3L))
    s.remove(Edge(1L, 3L))
    assert(s.leftNeighbors(1L) === Set(2L))
    assert(s.rightNeighbors(3L).isEmpty)
    assert(s.size === 1)
    assert(!s.contains(Edge(1L, 3L)))
  }

  test("adding a duplicate edge fails") {
    val s = sampleWith((1L, 2L))
    intercept[IllegalArgumentException](s.add(Edge(1L, 2L)))
  }

  test("removing a missing edge fails") {
    val s = sampleWith((1L, 2L))
    intercept[RuntimeException](s.remove(Edge(3L, 4L)))
  }

  test("degrees reflect current adjacency") {
    val s = sampleWith((1L, 10L), (1L, 11L), (2L, 10L))
    assert(s.leftDegree(1L) === 2)
    assert(s.leftDegree(2L) === 1)
    assert(s.rightDegree(10L) === 2)
    assert(s.rightDegree(11L) === 1)
  }

  test("swap-remove keeps the edge registry consistent") {
    val s = sampleWith((1L, 1L), (2L, 2L), (3L, 3L), (4L, 4L))
    s.remove(Edge(1L, 1L)) // head removal exercises the swap path
    s.remove(Edge(3L, 3L))
    assert(s.size === 2)
    assert(s.snapshotEdges().toSet === Set(Edge(2L, 2L), Edge(4L, 4L)))
  }

  test("randomEdge only returns resident edges") {
    val s = sampleWith((1L, 1L), (2L, 2L), (3L, 3L))
    val rng = new java.util.SplittableRandom(1L)
    (1 to 100).foreach { _ =>
      assert(s.contains(s.randomEdge(rng)))
    }
  }

  test("randomEdge is near-uniform over resident edges") {
    val s = sampleWith((1L, 1L), (2L, 2L), (3L, 3L), (4L, 4L))
    val rng = new java.util.SplittableRandom(2L)
    val counts = scala.collection.mutable.Map.empty[Edge, Int].withDefaultValue(0)
    (1 to 40000).foreach(_ => counts(s.randomEdge(rng)) += 1)
    counts.values.foreach(c => assert(math.abs(c - 10000) < 600, s"skewed draw: $counts"))
  }

  test("snapshotEdges is a stable copy unaffected by later mutations") {
    val s = sampleWith((1L, 1L), (2L, 2L))
    val snap = s.snapshotEdges()
    s.remove(Edge(1L, 1L))
    assert(snap.toSet === Set(Edge(1L, 1L), Edge(2L, 2L)))
  }

  test("property: random add/remove sequences keep registry and adjacency in sync") {
    (1 to 50).foreach { trial =>
      val rng = new java.util.SplittableRandom(trial.toLong)
      val s = new AdjacencySample
      val ref = scala.collection.mutable.Set.empty[(Long, Long)]
      (1 to 200).foreach { _ =>
        val l = 1L + rng.nextInt(8)
        val r = 1L + rng.nextInt(8)
        val add = rng.nextBoolean()
        val e = Edge(l, r)
        if (add && !ref((l, r))) { s.add(e); ref += ((l, r)) }
        else if (!add && ref((l, r))) { s.remove(e); ref -= ((l, r)) }
      }
      assert(s.size === ref.size, s"trial $trial size")
      assert(s.snapshotEdges().map(e => (e.left, e.right)).toSet === ref.toSet, s"trial $trial edges")
      ref.groupBy(_._1).foreach { case (l, es) =>
        assert(s.leftDegree(l) === es.size, s"trial $trial degree of $l")
      }
    }
  }

  test("differential: random add/remove matches a swap-remove list plus sets") {
    // Ids mix a small dense range (long probe runs, shared vertices) with
    // arbitrary longs, extremes included; each trial grows the sample well
    // past the initial table sizes, drains it to empty and grows it again.
    val extremes = Array(Long.MinValue, Long.MaxValue, 0L, -1L)
    (1 to 12).foreach { trial =>
      val rng = new java.util.SplittableRandom(100L + trial)
      def id(): Long =
        if (rng.nextInt(10) < 7) rng.nextInt(24).toLong
        else if (rng.nextInt(4) == 0) extremes(rng.nextInt(extremes.length))
        else rng.nextLong()
      val s = new AdjacencySample
      val model = scala.collection.mutable.ArrayBuffer.empty[Edge]
      val seen = scala.collection.mutable.Set.empty[Edge]
      def modelRemove(e: Edge): Unit = {
        val pos = model.indexOf(e)
        val last = model.remove(model.length - 1)
        if (pos < model.length) model(pos) = last
      }
      def check(step: Int): Unit = {
        val clue = s"trial $trial step $step"
        assert(s.size === model.length, clue)
        assert(s.snapshotEdges().toSeq === model.toSeq, clue) // same dense order
        val live = model.toSet
        seen.foreach(e => assert(s.contains(e) === live(e), s"$clue contains $e"))
        val byLeft = model.groupBy(_.left)
        val byRight = model.groupBy(_.right)
        seen.foreach { e =>
          val nl = byLeft.getOrElse(e.left, Nil).map(_.right).toSet
          val nr = byRight.getOrElse(e.right, Nil).map(_.left).toSet
          assert(s.leftDegree(e.left) === nl.size, s"$clue degree of left ${e.left}")
          assert(s.rightDegree(e.right) === nr.size, s"$clue degree of right ${e.right}")
          assert(s.leftNeighbors(e.left).toSet === nl, s"$clue neighbours of left ${e.left}")
          assert(s.rightNeighbors(e.right).toSet === nr, s"$clue neighbours of right ${e.right}")
        }
      }
      val phases = Seq(400 -> 0.8, 600 -> 0.15, 300 -> 0.8)
      var step = 0
      phases.foreach { case (ops, addBias) =>
        (1 to ops).foreach { _ =>
          step += 1
          if (model.isEmpty || rng.nextDouble() < addBias) {
            val e = Edge(id(), id())
            if (!s.contains(e)) { s.add(e); model += e; seen += e }
          } else {
            val e = model(rng.nextInt(model.length))
            s.remove(e); modelRemove(e)
          }
          if (step % 25 == 0) check(step)
        }
        check(step)
      }
      // randomEdge draws the same sequence as indexing the model.
      if (model.nonEmpty) {
        val r1 = new java.util.SplittableRandom(trial.toLong)
        val r2 = new java.util.SplittableRandom(trial.toLong)
        (1 to 50).foreach(_ => assert(s.randomEdge(r1) === model(r2.nextInt(model.length))))
      }
      // Mutating a copy leaves the original untouched, and vice versa.
      val before = s.snapshotEdges().toSeq
      val c = s.copy()
      val cModel = model.clone()
      (1 to 200).foreach { _ =>
        if (cModel.nonEmpty && rng.nextBoolean()) {
          val e = cModel(rng.nextInt(cModel.length))
          c.remove(e)
          val pos = cModel.indexOf(e)
          val last = cModel.remove(cModel.length - 1)
          if (pos < cModel.length) cModel(pos) = last
        } else {
          val e = Edge(id(), id())
          if (!c.contains(e)) { c.add(e); cModel += e; seen += e }
        }
      }
      assert(c.snapshotEdges().toSeq === cModel.toSeq, s"trial $trial copy")
      assert(s.snapshotEdges().toSeq === before, s"trial $trial original after copy mutation")
      check(step)
      s.add(Edge(Long.MinValue + trial, Long.MaxValue - trial))
      assert(!c.contains(Edge(Long.MinValue + trial, Long.MaxValue - trial)), s"trial $trial copy after original mutation")
    }
  }
}
