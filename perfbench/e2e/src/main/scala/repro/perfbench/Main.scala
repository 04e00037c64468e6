package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** Command-line options shared by the untraced and the traced entry points. */
final case class Options(workloads: Seq[Workload], seed: Long, seconds: Double,
                         out: String, workDir: String)

object Options {
  def parse(args: Array[String]): Options = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, sys.error(s"missing --$k"))
    val ws = need("workload") match {
      case "all" => Workloads.all
      case n => Seq(Workloads.byName(n).getOrElse(sys.error(s"unknown workload $n")))
    }
    Options(ws, need("seed").toLong, need("seconds").toDouble, need("out"), need("work-dir"))
  }
}

/** Starts Spark on first use (`local[nproc]`); the start is set-up time of the
  * first workload that needs it.
  */
final class Sessions(workDir: String) {
  private var session: SparkSession = null

  def get(rep: Report): SparkSession = {
    if (session == null) {
      val t0 = System.nanoTime()
      session = SparkSession.builder()
        .master(s"local[${Workloads.parallelism}]")
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", s"$workDir/spark-local")
        .config("spark.sql.warehouse.dir", s"$workDir/warehouse")
        .config("spark.sql.shuffle.partitions", Workloads.parallelism.toString)
        .config("spark.sql.streaming.numRecentProgressUpdates", "100000")
        .config("spark.sql.streaming.forceDeleteTempCheckpointLocation", "true")
        .getOrCreate()
      session.sparkContext.setLogLevel("WARN")
      rep.setupOnce("spark_start") = Workloads.secondsSince(t0)
    }
    session
  }

  def stop(): Unit = if (session != null) session.stop()
}

/** Untraced benchmark run: set-up, warm-up, the timed loop and the heap
  * measurement, per workload. Writes the raw report that `run.py` reads.
  */
object Main {
  import Workloads._

  /** What every result is stamped with. */
  def environment(): Map[String, Any] = Map(
    "nproc" -> parallelism,
    "xmx" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      .filter(_.startsWith("-Xmx")).lastOption.map(_.drop(4)).getOrElse("default"),
    "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
    "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq,
    "scala" -> scala.util.Properties.versionNumberString,
    "spark" -> org.apache.spark.SPARK_VERSION,
    "git_sha" -> sys.props.getOrElse("perfbench.git", "unknown"),
    "source_digest" -> sys.props.getOrElse("perfbench.source", "unknown"),
  )

  /** Warm-up (Spark workloads) and the timed loop of `seconds`; JVM GC and
    * allocation counters cover the timed loop only. Returns the last counter.
    */
  def measure(w: Workload, p: Prepared, seed: Long, seconds: Double, rep: Report,
              spark: => SparkSession): AnyRef = {
    val rows = if (w.name == "streaming-open-loop") rowsOf(p.input) else null
    val t0 = System.nanoTime()
    w.name match {
      case "parabacus-spark" =>
        closedLoop(rep, p, t0, record = false)(parabacusDriven(w, p, seed, spark))
        rep.setupOnce("warmup") = secondsSince(t0)
      case "streaming-open-loop" =>
        // With a single warm-up pass the first timed pass is still
        // measurably slower (p99 up to 2x) than the next one.
        (0 until 2).foreach(_ => openPass(spark, rows, p.input.length, w.k, seed, rep))
        rep.setupOnce("warmup") = secondsSince(t0)
      case _ => // the reference runs of set-up warm ABACUS up
    }
    val gc0 = gcMillis(); val alloc0 = allocatedBytes()
    val passes0 = rep.closedPasses.length; val open0 = rep.openPasses.length
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    val last: AnyRef = w.name match {
      case "parabacus-spark" =>
        closedLoop(rep, p, deadline)(parabacusDriven(w, p, seed, spark)).counter
      case "streaming-open-loop" =>
        openLoop(spark, rep, w, p, rows, seed, deadline)
      case _ =>
        closedLoop(rep, p, deadline)(abacusDriven(w, p, seed)).counter
    }
    val elements = rep.closedPasses.drop(passes0).map(_.map(_(0)).sum).sum +
      rep.openPasses.drop(open0).map(_.rows.toLong).sum
    rep.info("window_elements") = elements
    rep.info("window_gc_ms") = gcMillis() - gc0
    rep.info("window_alloc_bytes") = allocatedBytes() - alloc0
    last
  }

  def runOne(w: Workload, o: Options, sessions: Sessions): Report = {
    val rep = new Report(w.name, o.seed)
    try {
      if (w.usesSpark) sessions.get(rep)
      val p = prepare(w, o.seed, rep)
      val last = measure(w, p, o.seed, o.seconds, rep, sessions.get(rep))
      rep.info("live_heap_bytes") = liveHeap(last)
      rep.info("elements_per_pass") = p.input.length
    } catch {
      case e: Throwable =>
        e.printStackTrace()
        rep.check(ok = false, s"workload aborted: $e")
    }
    rep
  }

  def writeResult(o: Options, reports: Seq[Report]): Unit =
    Files.write(Paths.get(o.out),
      Json.write(Map("env" -> environment(), "reports" -> reports.map(_.toJson)))
        .getBytes(StandardCharsets.UTF_8))

  def main(args: Array[String]): Unit = {
    val o = Options.parse(args)
    val sessions = new Sessions(o.workDir)
    try writeResult(o, o.workloads.map(runOne(_, o, sessions)))
    finally sessions.stop()
  }
}
