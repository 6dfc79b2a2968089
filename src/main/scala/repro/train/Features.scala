package repro.train

import repro.imaging.PlanarImage

/** A labeled feature vector — the unit flowing through the trainer. */
final case class LabeledVec(id: Long, label: Int, features: Array[Double])

/** Feature extractors standing in for the paper's two architectures.
  *
  * - `lowpass` ("resnet-lite"): 4× box-pooled luma. Only low spatial
  *   frequencies reach the model, so it is robust to the high-frequency
  *   loss of early scans — like ResNet in the paper's Figures 10/12.
  * - `fullres` ("shufflenet-lite"): unpooled luma. The model can exploit
  *   high-frequency structure and therefore degrades on low scans — like
  *   ShuffleNet — while its compute-rate constant is higher (§A.5: 750 vs
  *   450 images/s/node).
  */
object Features {

  /** Normalize to roughly zero-mean unit-range: x/255 − 0.5. */
  private def normalize(p: Array[Double]): Array[Double] = {
    val out = new Array[Double](p.length)
    var i = 0
    while (i < p.length) { out(i) = p(i) / 255.0 - 0.5; i += 1 }
    out
  }

  def lowpass(width: Int, height: Int, y: Array[Int]): Array[Double] =
    normalize(PlanarImage.downsample(y, width, height, 4))

  def fullres(width: Int, height: Int, y: Array[Int]): Array[Double] = normalize(y.map(_.toDouble))

  /** Extractor + compute-rate constants for one model "architecture".
    * `luma` maps a `width`×`height` luma plane to features: both
    * architectures see luma only, so a reader need decode nothing else.
    */
  final case class ModelArch(
      name: String,
      luma: (Int, Int, Array[Int]) => Array[Double],
      imagesPerSecPerNode: Double) {

    def extract(img: PlanarImage): Array[Double] = luma(img.width, img.height, img.y)
  }

  val resnetLite: ModelArch    = ModelArch("resnet-lite", lowpass, 450.0)
  val shufflenetLite: ModelArch = ModelArch("shufflenet-lite", fullres, 750.0)

  def dim(arch: ModelArch, width: Int, height: Int): Int =
    if (arch.name == "resnet-lite") (width / 4) * (height / 4) else width * height
}
