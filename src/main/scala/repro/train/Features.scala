package repro.train

import repro.imaging.PlanarImage

/** A labeled feature vector — the unit flowing through the trainer. */
final case class LabeledVec(id: Long, label: Int, features: Array[Double])

/** Feature extractors standing in for the paper's two architectures. Each
  * box-pools the luma plane by its architecture's factor.
  *
  * - "resnet-lite": 4× pooled luma. Only low spatial frequencies reach the
  *   model, so it is robust to the high-frequency loss of early scans —
  *   like ResNet in the paper's Figures 10/12.
  * - "shufflenet-lite": unpooled luma (factor 1). The model can exploit
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

  /** Extractor + compute-rate constants for one model "architecture".
    * Both architectures see luma only, so a reader need decode nothing
    * else.
    */
  final case class ModelArch(name: String, pool: Int, imagesPerSecPerNode: Double) {

    /** Features of a `width`×`height` luma plane: `pool`× box-pooled, normalized. */
    def luma(width: Int, height: Int, y: Array[Int]): Array[Double] =
      normalize(PlanarImage.downsample(y, width, height, pool))

    def extract(img: PlanarImage): Array[Double] = luma(img.width, img.height, img.y)
  }

  val resnetLite: ModelArch    = ModelArch("resnet-lite", 4, 450.0)
  val shufflenetLite: ModelArch = ModelArch("shufflenet-lite", 1, 750.0)

  def dim(arch: ModelArch, width: Int, height: Int): Int = (width / arch.pool) * (height / arch.pool)
}
