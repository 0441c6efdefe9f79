package repro.perfbench

import java.io.PrintWriter
import java.nio.file.Path
import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span has a name, a start and an end (ns since the recorder was made),
  * the span that caused it, and the id of the query or batch request it
  * serves (-1 when it serves none). Spans are opened only by the benchmark's
  * single driver thread, around calls into the program's public functions,
  * so a stack gives each span its parent. When `enabled` is false, `span`
  * only runs its body.
  */
final class Trace(var enabled: Boolean) {
  import Trace.Span

  private val origin = System.nanoTime()
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextSpan = 0
  private var nextRequest = 0L

  /** A fresh query/request id. */
  def newRequest(): Long = { nextRequest += 1; nextRequest }

  /** Run `body` inside a span named `name` serving request `qid`. */
  def span[T](name: String, qid: Long = -1)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextSpan
      nextSpan += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val start = System.nanoTime() - origin
      try body
      finally {
        open = open.tail
        done += Span(id, parent, name, qid, start, System.nanoTime() - origin)
      }
    }

  def spans: Seq[Span] = done.toSeq

  /** Self time per layer in ms: each span's duration minus the time its
    * direct children cover (children of one span never overlap, because
    * one thread opens them), summed over the spans of that layer.
    */
  def selfMsByLayer: Map[String, Double] = {
    val childNs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    done.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.end - s.start)
    done.groupBy(s => Trace.layerOf(s.name)).map { case (layer, ss) =>
      layer -> ss.iterator.map(s => s.end - s.start - childNs(s.id)).sum / 1e6
    }
  }

  /** Write every span as one JSON object per line. */
  def write(path: Path): Unit = {
    val out = new PrintWriter(path.toFile, "UTF-8")
    try done.foreach { s =>
      out.println(Json.render(Seq(
        "id" -> s.id, "parent" -> s.parent, "name" -> s.name, "qid" -> s.qid,
        "start_ns" -> s.start, "end_ns" -> s.end)))
    } finally out.close()
  }
}

object Trace {
  final case class Span(id: Int, parent: Int, name: String, qid: Long, start: Long, end: Long)

  /** The repo's layers, most specific first; `bench` is the harness itself. */
  val Layers: Seq[String] = Seq("core.kernels", "core.build", "core.query", "spark", "baselines", "bench")

  def layerOf(name: String): String =
    Layers.find(l => name == l || name.startsWith(l + ".")).getOrElse("bench")
}

/** Minimal JSON rendering for the benchmark's outputs. */
object Json {
  def render(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: Map[_, _]         => m.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case kv: Seq[_] if kv.forall(_.isInstanceOf[(_, _)]) && kv.nonEmpty =>
      kv.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]      => xs.map(render).mkString("[", ", ", "]")
    case other                => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
