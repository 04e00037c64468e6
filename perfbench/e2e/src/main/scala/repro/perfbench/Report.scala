package repro.perfbench

import scala.collection.mutable

/** One open-loop pass: the schedule (row `i` is due at `t0Ns + i * 1e9 / rate`)
  * and, per micro-batch in commit order, its row count and commit time.
  * Rows before `settleRows` fall in the query's start-up transient and are
  * left out of the pass's latency and rate.
  */
final case class OpenPass(t0Ns: Long, rate: Double, rows: Int, settleRows: Int,
                          batches: Seq[(Long, Long)], lateNsMax: Long) {
  def toJson: Map[String, Any] = Map(
    "t0_ns" -> t0Ns, "rate" -> rate, "rows" -> rows, "settle_rows" -> settleRows,
    "batches" -> batches.map { case (r, c) => Seq(r, c) }, "late_ns_max" -> lateNsMax)
}

/** Everything one workload run hands to the Python front end, which turns
  * it into metrics. Times are `System.nanoTime` values or seconds.
  */
final class Report(val workload: String, val seed: Long) {
  /** Set-up steps done once per run, in seconds. */
  val setupOnce = mutable.LinkedHashMap.empty[String, Double]
  /** Repeated set-up (input generation plus reference run), in seconds. */
  val setupReps = mutable.ArrayBuffer.empty[Double]
  /** Closed-loop passes: per batch (rows, due, commit); all rows of a batch
    * are due when it is handed to the counter.
    */
  val closedPasses = mutable.ArrayBuffer.empty[Seq[Array[Long]]]
  /** Per-element latency of each recorded closed-loop pass that timed any. */
  val latencyPasses = mutable.ArrayBuffer.empty[LatencyHistogram]
  val openPasses = mutable.ArrayBuffer.empty[OpenPass]
  val info = mutable.LinkedHashMap.empty[String, Any]
  /** Per-layer metrics of a traced run: value and unit. */
  val layers = mutable.LinkedHashMap.empty[String, (Double, String)]
  var attempted = 0L
  var failed = 0L
  val failures = mutable.ArrayBuffer.empty[String]

  /** Count one checked operation; keeps the first few failure messages. */
  def check(ok: Boolean, what: => String): Boolean = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (failures.length < 20) failures += what
      Console.err.println(s"[perfbench] CHECK FAILED ($workload): $what")
    }
    ok
  }

  def toJson: Map[String, Any] = Map(
    "workload" -> workload, "seed" -> seed,
    "setup_once_s" -> setupOnce, "setup_reps_s" -> setupReps,
    "closed_passes" -> closedPasses.map(_.map(_.toSeq)),
    "closed_latency_ns" -> latencyPasses.map(_.buckets.map { case (v, n) => Seq[Any](v, n) }),
    "open_passes" -> openPasses.map(_.toJson),
    "attempted" -> attempted, "failed" -> failed, "failures" -> failures,
    "info" -> info, "layers" -> layers.map { case (k, (v, u)) => k -> Seq(v, u) })
}
