package repro.experiments

import repro.core.{PcrDecoder, PcrEncoder}

/** Figure 24 / §A.5: reader microbenchmark — raw PCR prefix reads with no
  * pixel decoding. The reader's work is file IO plus memcpy-style scan
  * regrouping, so throughput in images/s scales inversely with the bytes
  * each scan group drags in.
  */
final case class ReaderRate(
    scanGroup: Int,
    imagesPerSec: Double,
    megabytesPerSec: Double)

object Fig24Reader {

  def run(pcrDir: String, reps: Int = 5): Seq[ReaderRate] = {
    val records = PcrEncoder.listRecords(pcrDir)
    require(records.nonEmpty, s"no records under $pcrDir")
    // Warm the page cache and JIT so rates reflect reader overhead.
    Seq(1, 5, 10).foreach(g => records.foreach(PcrDecoder.readRecordRaw(_, g)))
    Seq(1, 2, 5, 10).map { g =>
      // Best of 5 trials: the min time filters GC pauses out of a
      // microbenchmark whose unit of work is tens of microseconds.
      val results = (0 until 5).map { _ =>
        var images = 0L
        var bytes = 0L
        val (_, sec) = timed {
          var r = 0
          while (r < reps) {
            records.foreach { p =>
              val (header, entries) = PcrDecoder.readRecordRaw(p, g)
              images += entries.size
              bytes += header.prefixLength(math.min(g, header.nScanGroups))
            }
            r += 1
          }
        }
        (images / sec, bytes / sec / 1e6)
      }
      val best = results.maxBy(_._1)
      ReaderRate(g, best._1, best._2)
    }
  }

  def render(rows: Seq[ReaderRate]): String = {
    val header = Seq(
      "| Scan group | images/s | MB/s |",
      "|------------|----------|------|")
    val body = rows.map(r =>
      f"| ${r.scanGroup}%10d | ${r.imagesPerSec}%8.0f | ${r.megabytesPerSec}%4.0f |")
    (header ++ body).mkString("\n")
  }
}
