package repro.imaging

/** A YCbCr 4:2:0 planar image: full-resolution luma, half-resolution chroma.
  *
  * Dimensions must be multiples of 16 so both luma and subsampled chroma
  * tile exactly into 8×8 DCT blocks (the synthetic generators only produce
  * such sizes, mirroring how ML pipelines resize to block-friendly shapes).
  * Pixel values are ints in [0, 255].
  */
final case class PlanarImage(
    width: Int,
    height: Int,
    y: Array[Int],
    cb: Array[Int],
    cr: Array[Int]) {
  require(width % 16 == 0 && height % 16 == 0, s"dims must be multiples of 16: ${width}x$height")
  require(y.length == width * height, "luma plane size mismatch")
  require(cb.length == width * height / 4, "cb plane size mismatch")
  require(cr.length == width * height / 4, "cr plane size mismatch")

  def chromaWidth: Int  = width / 2
  def chromaHeight: Int = height / 2

  /** Mean squared error of the luma plane against another image. */
  def mseY(other: PlanarImage): Double = {
    require(other.width == width && other.height == height, "size mismatch")
    var s = 0.0; var i = 0
    while (i < y.length) { val d = (y(i) - other.y(i)).toDouble; s += d * d; i += 1 }
    s / y.length
  }

  /** Peak signal-to-noise ratio (dB) of the luma plane; infinite if equal. */
  def psnrY(other: PlanarImage): Double = {
    val m = mseY(other)
    if (m == 0) Double.PositiveInfinity else 10.0 * math.log10(255.0 * 255.0 / m)
  }

  /** Box-downsample the luma plane by integer `factor` (must divide dims). */
  def downsampleY(factor: Int): Array[Double] = PlanarImage.downsample(y, width, height, factor)
}

object PlanarImage {

  /** Box-downsample a `width`×`height` plane by integer `factor` (must
    * divide both).
    */
  def downsample(plane: Array[Int], width: Int, height: Int, factor: Int): Array[Double] = {
    require(factor > 0 && width % factor == 0 && height % factor == 0, s"bad factor $factor")
    val ow = width / factor; val oh = height / factor
    val out = new Array[Double](ow * oh)
    var by = 0
    while (by < oh) {
      var bx = 0
      while (bx < ow) {
        var s = 0.0; var dy = 0
        while (dy < factor) {
          var dx = 0
          val rowBase = (by * factor + dy) * width + bx * factor
          while (dx < factor) { s += plane(rowBase + dx); dx += 1 }
          dy += 1
        }
        out(by * ow + bx) = s / (factor * factor)
        bx += 1
      }
      by += 1
    }
    out
  }

  /** A flat mid-gray image — the decoder's starting canvas. */
  def flat(width: Int, height: Int, value: Int = 128): PlanarImage =
    PlanarImage(
      width, height,
      Array.fill(width * height)(value),
      Array.fill(width * height / 4)(128),
      Array.fill(width * height / 4)(128))

  def clamp255(v: Double): Int = {
    val r = math.round(v).toInt
    if (r < 0) 0 else if (r > 255) 255 else r
  }
}
