package repro.imaging

/** Synthetic stand-ins for the paper's four image datasets.
  *
  * Real datasets are unavailable offline, so each is modeled as a seeded
  * random-cosine field whose knobs map onto the properties the paper's
  * measurements depend on:
  *
  *  - `alpha`: spectral decay of the base texture (smaller → more
  *    high-frequency energy → larger files, bigger late scans);
  *  - `quality`: the JPEG quality each dataset natively uses (Table 3);
  *  - `noiseAmp`: per-pixel noise, which only survives high quality and
  *    inflates files (HAM10000 is quality 100 with the largest images);
  *  - `classFreqLo/Hi`: the frequency band carrying the class signal —
  *    low-frequency tasks (CelebAHQ smiling) tolerate heavy compression,
  *    high-frequency tasks (Cars fine-grained) need later scans.
  *
  * Images are pure functions of (spec, id, seed): label and pixels can be
  * regenerated anywhere without shuffling pixel data.
  */
final case class DatasetSpec(
    name: String,
    width: Int,
    height: Int,
    quality: Int,
    numClasses: Int,
    imagesPerSf: Int,
    imagesPerRecord: Int,
    alpha: Double,
    baseAmp: Double,
    noiseAmp: Double,
    classFreqLo: Double,
    classFreqHi: Double,
    classAmp: Double,
    nBaseComponents: Int,
    nClassComponents: Int,
    chromaAmp: Double,
    // Hierarchical labels (Cars): nMakes > 0 splits each class into
    // make = label / (numClasses / nMakes); the make's template occupies a
    // low-frequency band while the fine variant stays high-frequency, so
    // coarser tasks tolerate more compression (paper Figure 11).
    nMakes: Int = 0,
    makeFreqLo: Double = 0,
    makeFreqHi: Double = 0,
    makeAmp: Double = 0) {
  require(nMakes == 0 || numClasses % nMakes == 0, "classes must divide evenly into makes")
  def numImages(sf: Double): Int = math.max(1, (imagesPerSf * sf).toInt)
}

object SyntheticImages {

  /** ImageNet-lite: many classes, mixed-frequency class signal, quality ~92. */
  val imagenet: DatasetSpec = DatasetSpec("imagenet", 64, 64, 92, 10,
    imagesPerSf = 12800, imagesPerRecord = 128,
    alpha = 1.1, baseAmp = 55, noiseAmp = 3.0,
    classFreqLo = 2, classFreqHi = 12, classAmp = 16,
    nBaseComponents = 24, nClassComponents = 8, chromaAmp = 20)

  /** HAM10000-lite: largest images, quality 100, noisy medical texture. */
  val ham10000: DatasetSpec = DatasetSpec("ham10000", 128, 128, 100, 7,
    imagesPerSf = 800, imagesPerRecord = 64,
    alpha = 0.9, baseAmp = 45, noiseAmp = 8.0,
    classFreqLo = 2, classFreqHi = 28, classAmp = 14,
    nBaseComponents = 28, nClassComponents = 8, chromaAmp = 25)

  /** Cars-lite: fine-grained labels carried by higher frequencies.
    * 32 fine classes = 4 makes × 8 variants (see [[makeLabel]]).
    */
  val cars: DatasetSpec = DatasetSpec("cars", 64, 64, 84, 32,
    imagesPerSf = 800, imagesPerRecord = 64,
    alpha = 1.2, baseAmp = 50, noiseAmp = 2.0,
    classFreqLo = 6, classFreqHi = 20, classAmp = 15,
    nBaseComponents = 24, nClassComponents = 8, chromaAmp = 20,
    nMakes = 4, makeFreqLo = 1.5, makeFreqHi = 5, makeAmp = 18)

  /** CelebAHQ-lite: binary smiling task, smooth faces, quality 75. */
  val celebahq: DatasetSpec = DatasetSpec("celebahq", 64, 64, 75, 2,
    imagesPerSf = 2400, imagesPerRecord = 96,
    alpha = 1.6, baseAmp = 60, noiseAmp = 1.5,
    classFreqLo = 1, classFreqHi = 5, classAmp = 20,
    nBaseComponents = 20, nClassComponents = 6, chromaAmp = 25)

  val all: Seq[DatasetSpec] = Seq(imagenet, ham10000, cars, celebahq)

  def byName(name: String): DatasetSpec =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown dataset '$name' (know: ${all.map(_.name).mkString(",")})"))

  /** Deterministic, exactly class-balanced label. */
  def label(spec: DatasetSpec, id: Long): Int = (id % spec.numClasses).toInt

  /** Coarse task label: the "make" of a fine-grained class. */
  def makeLabel(spec: DatasetSpec, fineLabel: Int): Int = {
    require(spec.nMakes > 0, s"${spec.name} has no make hierarchy")
    fineLabel / (spec.numClasses / spec.nMakes)
  }

  /** Binary task label: "is it make 0" (the paper's Is-Corvette). */
  def isMakeZeroLabel(spec: DatasetSpec, fineLabel: Int): Int =
    if (makeLabel(spec, fineLabel) == 0) 0 else 1

  /** One 2-D cosine grating `amp · cos(ax + by + φ)` tabulated separably on
    * a w×h grid: cos(ax + by + φ) = cos(ax)cos(by+φ) − sin(ax)sin(by+φ).
    * [[set]] re-tabulates it, so a batch reuses one set of tables for the
    * gratings that each image samples afresh.
    */
  private final class Grating(w: Int, h: Int) {
    val cosX = new Array[Double](w); val sinX = new Array[Double](w)
    val cosY = new Array[Double](h); val sinY = new Array[Double](h)
    var amp = 0.0

    def set(fx: Double, fy: Double, phase: Double, amp: Double): Unit = {
      this.amp = amp
      val ax = 2.0 * math.Pi * fx / w
      val by = 2.0 * math.Pi * fy / h
      var x = 0
      while (x < w) { cosX(x) = math.cos(ax * x); sinX(x) = math.sin(ax * x); x += 1 }
      var yy = 0
      while (yy < h) { cosY(yy) = math.cos(by * yy + phase); sinY(yy) = math.sin(by * yy + phase); yy += 1 }
    }
  }

  /** Sample `gratings.length` gratings into `gratings`, with radial frequency
    * in [fLo, fHi] (cycles per image) and amplitude `amp / f^alpha`.
    */
  private def sampleGratings(
      rng: Rng, fLo: Double, fHi: Double, amp: Double, alpha: Double, gratings: Array[Grating]): Array[Grating] = {
    var i = 0
    while (i < gratings.length) {
      // Log-uniform radial frequency keeps low and high octaves populated.
      val f = math.exp(rng.uniform(math.log(math.max(fLo, 0.5)), math.log(fHi)))
      val theta = rng.uniform(0, 2 * math.Pi)
      gratings(i).set(f * math.cos(theta), f * math.sin(theta), rng.uniform(0, 2 * math.Pi),
        amp / math.pow(f, alpha))
      i += 1
    }
    gratings
  }

  /** Row `yy` of the sum of `gratings`, into `row`: each pixel starts at 0.0
    * and adds the gratings in order. The inner loop indexes `row` and one
    * grating's x tables with the same index, so C2 vectorizes it.
    */
  private def sumRow(row: Array[Double], gratings: Array[Grating], yy: Int): Unit = {
    java.util.Arrays.fill(row, 0.0)
    var g = 0
    while (g < gratings.length) {
      val gr = gratings(g)
      val amp = gr.amp; val cosX = gr.cosX; val sinX = gr.sinX
      val cy = gr.cosY(yy); val sy = gr.sinY(yy)
      var x = 0
      while (x < row.length) {
        row(x) += amp * (cosX(x) * cy - sinX(x) * sy)
        x += 1
      }
      g += 1
    }
  }

  /** Generate image `id` of `spec` deterministically. */
  def generate(spec: DatasetSpec, id: Long, seed: Long = 0L): PlanarImage =
    generateAll(spec, Seq(id), seed).head

  /** Generate images `ids` of `spec`: element i is `generate(spec, ids(i),
    * seed)`. The label templates are tabulated once per label of `ids`, so
    * the images of a record share them.
    */
  def generateAll(spec: DatasetSpec, ids: Seq[Long], seed: Long): Seq[PlanarImage] = {
    val batch = new Batch(spec, seed)
    ids.map(batch.image)
  }

  /** The state one [[generateAll]] call shares across its images: the label
    * templates built so far, and the tables and rows each image refills.
    */
  private final class Batch(spec: DatasetSpec, seed: Long) {
    private val w = spec.width
    private val h = spec.height
    private val cw = w / 2
    private val ch = h / 2
    private val datasetSeed = Rng.mix(seed, spec.name.hashCode.toLong)
    private val templates = scala.collection.mutable.HashMap.empty[Int, Array[Grating]]
    private val base = Array.fill(spec.nBaseComponents)(new Grating(w, h))
    private val chroma = Array.fill(6)(new Grating(cw, ch))
    private val row = new Array[Double](w)
    private val noise = new Array[Double](w)
    private val chromaRow = new Array[Double](cw)

    /** The templates image `id` shares with every image of its label: the
      * class template, band-limited to the class frequency band so the
      * discriminative signal lives at a controlled point of the spectrum
      * compression progressively removes. Hierarchical datasets add a
      * low-frequency make template shared by all fine classes of the same
      * make, so coarser relabelings stay learnable from earlier scans
      * (paper Figure 11).
      */
    private def labelTemplates(lbl: Int): Array[Grating] = {
      def fresh() = Array.fill(spec.nClassComponents)(new Grating(w, h))
      val cls = sampleGratings(new Rng(Rng.mix(datasetSeed, 0x5ca1ab1eL + lbl)),
        spec.classFreqLo, spec.classFreqHi, spec.classAmp, 0.0, fresh())
      if (spec.nMakes == 0) cls
      else cls ++ sampleGratings(new Rng(Rng.mix(datasetSeed, 0x0ddba11L + makeLabel(spec, lbl))),
        spec.makeFreqLo, spec.makeFreqHi, spec.makeAmp, 0.0, fresh())
    }

    def image(id: Long): PlanarImage = {
      val lbl = label(spec, id)
      val shared = templates.getOrElseUpdate(lbl, labelTemplates(lbl))

      // Base texture, unique per image, then the label's templates.
      val imgRng = new Rng(Rng.mix(datasetSeed, id))
      val gratings = sampleGratings(imgRng, 1.0, w / 2.0, spec.baseAmp, spec.alpha, base) ++ shared
      val y = new Array[Int](w * h)
      var yy = 0
      while (yy < h) {
        sumRow(row, gratings, yy)
        imgRng.nextGaussians(noise)
        val o = yy * w
        var x = 0
        while (x < w) {
          y(o + x) = PlanarImage.clamp255(128.0 + row(x) + spec.noiseAmp * noise(x))
          x += 1
        }
        yy += 1
      }

      // Chroma: smooth low-frequency colour fields at half resolution.
      def chromaPlane(): Array[Int] = {
        sampleGratings(imgRng, 0.5, 4.0, spec.chromaAmp, 1.0, chroma)
        val out = new Array[Int](cw * ch)
        var cy = 0
        while (cy < ch) {
          sumRow(chromaRow, chroma, cy)
          val o = cy * cw
          var x = 0
          while (x < cw) { out(o + x) = PlanarImage.clamp255(128.0 + chromaRow(x)); x += 1 }
          cy += 1
        }
        out
      }
      PlanarImage(w, h, y, chromaPlane(), chromaPlane())
    }
  }
}
