package repro.experiments

import repro.imaging.{DatasetSpec, SyntheticImages}
import repro.jpeg.Codec

/** Table 2: single-core decode rates (images/s) at each scan prefix and for
  * the baseline sequential encoding.
  *
  * This is a genuine wall-clock microbenchmark of our codec: progressive
  * decoding pays one entropy pass per scan read, so decoding all 10 scans is
  * slower than one sequential pass — the paper's "over 2× more expensive"
  * observation — while shallow prefixes are comparable or faster.
  */
final case class DecodeRates(
    dataset: String,
    nImages: Int,
    imagesPerSecByScan: Map[Int, Double],
    baselineImagesPerSec: Double)

object Table2Decode {

  def measure(spec: DatasetSpec, nImages: Int, seed: Long = 0L): DecodeRates = {
    val images = SyntheticImages.generateAll(spec, 0L until nImages.toLong, seed)
    val progressive = images.map(Codec.encodeProgressive(_, spec.quality))
    val sequential = images.map(Codec.encodeSequential(_, spec.quality))

    def decodeSeconds(g: Int): Double = timed(
      progressive.foreach(s =>
        Codec.decodeProgressive(s.take(g), spec.quality, spec.width, spec.height)))._2
    def baselineSeconds(): Double = timed(
      sequential.foreach(b =>
        Codec.decodeSequential(b, spec.quality, spec.width, spec.height)))._2

    val best = bestOf5(ReportedScans.map(g => () => decodeSeconds(g)) :+ (() => baselineSeconds()))
    val rates = ReportedScans.zip(best).map { case (g, sec) => g -> nImages / sec }.toMap
    DecodeRates(spec.name, nImages, rates, nImages / best.last)
  }

  def render(rows: Seq[DecodeRates]): String =
    markdownTable(Seq("Dataset", "Scan 1", "Scan 2", "Scan 5", "Scan 10", "Baseline"), rows.map { r =>
      Seq(f"${r.dataset}%-9s", f"${r.imagesPerSecByScan(1)}%6.0f", f"${r.imagesPerSecByScan(2)}%6.0f",
        f"${r.imagesPerSecByScan(5)}%6.0f", f"${r.imagesPerSecByScan(10)}%7.0f",
        f"${r.baselineImagesPerSec}%8.0f")
    })
}
