package repro.perfbench

/** Minimal JSON writer for the benchmark's raw result files (the Python
  * front end parses them). Accepts maps, sequences, arrays of primitives,
  * strings, numbers, booleans and `None`.
  */
object Json {
  def write(v: Any): String = { val sb = new StringBuilder; put(sb, v); sb.result() }

  private def put(sb: StringBuilder, v: Any): Unit = v match {
    case null | None      => sb ++= "null"
    case Some(x)          => put(sb, x)
    case s: String        => str(sb, s)
    case b: Boolean       => sb ++= b.toString
    case d: Double        => sb ++= (if (d.isNaN || d.isInfinite) "null" else d.toString)
    case f: Float         => put(sb, f.toDouble)
    case n: Int           => sb ++= n.toString
    case n: Long          => sb ++= n.toString
    case m: collection.Map[_, _] =>
      sb += '{'
      var first = true
      m.foreach { case (k, x) =>
        if (!first) sb += ','
        first = false
        str(sb, k.toString); sb += ':'; put(sb, x)
      }
      sb += '}'
    case a: Array[Long]   => seq(sb, a.iterator)
    case a: Array[Double] => seq(sb, a.iterator)
    case a: Array[Int]    => seq(sb, a.iterator)
    case s: IterableOnce[_] => seq(sb, s.iterator)
    case other            => str(sb, other.toString)
  }

  private def seq(sb: StringBuilder, it: Iterator[Any]): Unit = {
    sb += '['
    var first = true
    it.foreach { x => if (!first) sb += ','; first = false; put(sb, x) }
    sb += ']'
  }

  private def str(sb: StringBuilder, s: String): Unit = {
    sb += '"'
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    sb += '"'
  }
}
