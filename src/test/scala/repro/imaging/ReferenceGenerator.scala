package repro.imaging

import repro.imaging.SyntheticImages.{label, makeLabel}

/** The original image generator: it sums each grating over the whole field
  * before the next, re-tabulates the class (and make) templates for every
  * image, and adds the noise after all gratings. It is the oracle whose
  * pixels [[SyntheticImages.generate]] and [[SyntheticImages.generateAll]]
  * must match exactly.
  */
object ReferenceGenerator {

  private final case class Grating(fx: Double, fy: Double, phase: Double, amp: Double)

  private def addGratings(
      field: Array[Double], w: Int, h: Int, gratings: Seq[Grating]): Unit = {
    val cosX = new Array[Double](w); val sinX = new Array[Double](w)
    val cosY = new Array[Double](h); val sinY = new Array[Double](h)
    for (g <- gratings) {
      val ax = 2.0 * math.Pi * g.fx / w
      val by = 2.0 * math.Pi * g.fy / h
      var x = 0
      while (x < w) { cosX(x) = math.cos(ax * x); sinX(x) = math.sin(ax * x); x += 1 }
      var yy = 0
      while (yy < h) {
        cosY(yy) = math.cos(by * yy + g.phase); sinY(yy) = math.sin(by * yy + g.phase)
        yy += 1
      }
      yy = 0
      while (yy < h) {
        val cy = cosY(yy); val sy = sinY(yy)
        var xx = 0
        val row = yy * w
        while (xx < w) {
          field(row + xx) += g.amp * (cosX(xx) * cy - sinX(xx) * sy)
          xx += 1
        }
        yy += 1
      }
    }
  }

  private def sampleGratings(
      rng: Rng, n: Int, fLo: Double, fHi: Double, amp: Double, alpha: Double): Seq[Grating] =
    (0 until n).map { _ =>
      val f = math.exp(rng.uniform(math.log(math.max(fLo, 0.5)), math.log(fHi)))
      val theta = rng.uniform(0, 2 * math.Pi)
      Grating(f * math.cos(theta), f * math.sin(theta), rng.uniform(0, 2 * math.Pi),
        amp / math.pow(f, alpha))
    }

  def generate(spec: DatasetSpec, id: Long, seed: Long): PlanarImage = {
    val w = spec.width; val h = spec.height
    val lbl = label(spec, id)
    val datasetSeed = Rng.mix(seed, spec.name.hashCode.toLong)

    val imgRng = new Rng(Rng.mix(datasetSeed, id))
    val field = new Array[Double](w * h)
    addGratings(field, w, h,
      sampleGratings(imgRng, spec.nBaseComponents, 1.0, w / 2.0, spec.baseAmp, spec.alpha))

    val clsRng = new Rng(Rng.mix(datasetSeed, 0x5ca1ab1eL + lbl))
    addGratings(field, w, h, sampleGratings(clsRng, spec.nClassComponents,
      spec.classFreqLo, spec.classFreqHi, spec.classAmp, 0.0))

    if (spec.nMakes > 0) {
      val mk = makeLabel(spec, lbl)
      val mkRng = new Rng(Rng.mix(datasetSeed, 0x0ddba11L + mk))
      addGratings(field, w, h, sampleGratings(mkRng, spec.nClassComponents,
        spec.makeFreqLo, spec.makeFreqHi, spec.makeAmp, 0.0))
    }

    val y = new Array[Int](w * h)
    var i = 0
    while (i < y.length) {
      y(i) = PlanarImage.clamp255(128.0 + field(i) + spec.noiseAmp * imgRng.nextGaussian())
      i += 1
    }

    val cw = w / 2; val ch = h / 2
    def chromaPlane(): Array[Int] = {
      val cf = new Array[Double](cw * ch)
      addGratings(cf, cw, ch, sampleGratings(imgRng, 6, 0.5, 4.0, spec.chromaAmp, 1.0))
      val out = new Array[Int](cw * ch)
      var j = 0
      while (j < out.length) { out(j) = PlanarImage.clamp255(128.0 + cf(j)); j += 1 }
      out
    }
    PlanarImage(w, h, y, chromaPlane(), chromaPlane())
  }
}
