package repro.perfbench

/** Log-linear histogram of latencies in nanoseconds: values below 128 are
  * kept exactly, larger ones in 128 buckets per power of two (under 0.8%
  * wide). Lets a run record one latency per stream element without keeping
  * millions of values.
  */
final class LatencyHistogram {
  private val SubBits = 7
  private val counts = new Array[Long](64 << SubBits)

  private def index(v: Long): Int = {
    val msb = 63 - java.lang.Long.numberOfLeadingZeros(v)
    if (msb < SubBits) v.toInt
    else {
      val shift = msb - SubBits
      (shift << SubBits) + (v >>> shift).toInt
    }
  }

  private def lowerBound(i: Int): Long =
    if (i < (2 << SubBits)) i.toLong
    else {
      val shift = (i >>> SubBits) - 1
      (i - (shift << SubBits)).toLong << shift
    }

  /** Record `count` samples of `ns` nanoseconds. */
  def add(ns: Long, count: Long = 1L): Unit = counts(index(math.max(ns, 0L))) += count

  def total: Long = counts.sum

  /** Non-empty buckets as (bucket midpoint in ns, sample count). */
  def buckets: Seq[(Double, Long)] =
    counts.indices.filter(counts(_) > 0).map { i =>
      ((lowerBound(i) + lowerBound(i + 1)) / 2.0, counts(i))
    }
}
