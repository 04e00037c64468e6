package repro.perfbench.trace

import scala.collection.mutable.ArrayBuffer

/** One traced interval. Times are `System.nanoTime` values of this JVM
  * (Spark runs its tasks in-process under `local[n]`, so task spans share
  * one clock). `parent` is the id of the enclosing span, or -1.
  *
  * Calls much shorter than their parent (one per stream element) are not
  * recorded one by one: [[Spans.packed]] stores them as a single child
  * whose duration is their summed time and whose `calls` is their number.
  * Summed time equals the union the calls cover, since they never overlap
  * inside one parent, so self time stays exact.
  */
final case class Span(id: Int, name: String, start: Long, end: Long,
                      parent: Int, batch: Long, calls: Long)

/** In-memory span recorder; written out once, when the run ends. */
final class Spans {
  private val buf = ArrayBuffer.empty[Span]

  def add(name: String, start: Long, end: Long, parent: Int, batch: Long,
          calls: Long = 1L): Int = synchronized {
    val id = buf.length
    buf += Span(id, name, start, end, parent, batch, calls)
    id
  }

  /** Record per-call layer time as consecutive children of `parent`,
    * starting at `start`; returns the end of the last one.
    */
  def packed(parent: Int, batch: Long, start: Long,
             layers: Seq[(String, Long, Long)]): Long = {
    var t = start
    layers.foreach { case (name, busyNs, calls) =>
      if (calls > 0) { add(name, t, t + busyNs, parent, batch, calls); t += busyNs }
    }
    t
  }

  def toJson: Seq[Map[String, Any]] = synchronized(buf.toList).map { s =>
    Map("id" -> s.id, "name" -> s.name, "start_ns" -> s.start, "end_ns" -> s.end,
        "parent" -> s.parent, "batch" -> s.batch, "calls" -> s.calls)
  }
}

/** Count and busy time of one layer, accumulated across calls. */
final class Layer {
  var calls = 0L
  var busyNs = 0L
  def add(ns: Long): Unit = { calls += 1; busyNs += ns }
}
