package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.Paths

import org.apache.spark.sql.SparkSession

/** Entry point of one benchmark run:
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      --work <dir> [--trace-dir <dir>]
  * }}}
  *
  * Prints one line per metric, the run environment as JSON, and as the last
  * line the result object `{"correct", "attempted", "failed", "metrics"}`.
  * Exits 1 when any correctness check failed.
  */
object Main {

  def main(argv: Array[String]): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val opts = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def opt(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))

    val workload = Workload.byName(opt("workload"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val work = Paths.get(opt("work")).toAbsolutePath
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)

    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName(s"pcr-perfbench-${workload.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")

    val bench = new Bench(spark, workload, seed, seconds, trace, cores, work)
    val result =
      try bench.run(jvmStartMs)
      finally spark.stop()
    opts.get("trace-dir").filter(_ => trace).foreach { d =>
      bench.writeSpans(Paths.get(d).resolve(s"${workload.name}-seed$seed.jsonl"))
    }

    result.report.foreach(println)
    result.metrics.foreach { case (name, v, unit) => println(f"$name%-44s $v%18.6f $unit") }
    result.failures.foreach(f => println(s"FAILED: $f"))
    println(f"error_rate ${result.failures.size.toDouble / result.attempted}%.6f " +
      s"(${result.failures.size} failed of ${result.attempted} attempted)")
    println("env " + jsonObject(result.env.map { case (k, v) => k -> jsonString(v) }))
    val metrics = result.metrics.map { case (name, v, unit) =>
      name -> jsonObject(Seq("value" -> jsonNumber(v), "unit" -> jsonString(unit)))
    }
    println(jsonObject(Seq(
      "correct" -> result.failures.isEmpty.toString,
      "attempted" -> result.attempted.toString,
      "failed" -> result.failures.size.toString,
      "metrics" -> jsonObject(metrics))))
    System.out.flush()
    sys.exit(if (result.failures.isEmpty) 0 else 1)
  }

  private def jsonString(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  /** Full-precision JSON number; non-finite values are not JSON. */
  private def jsonNumber(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v is not a finite number")
    java.lang.Double.toString(v)
  }

  private def jsonObject(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${jsonString(k)}: $v" }.mkString("{", ", ", "}")
}
