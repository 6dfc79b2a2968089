package repro.jpeg

/** Orthonormal 8×8 DCT-II and its inverse.
  *
  * `C(u,x) = c(u)/2 * cos((2x+1)uπ/16)` with `c(0)=1/√2`, so `F = C f Cᵀ`
  * and `f = Cᵀ F C`. The transform is exactly orthonormal, which keeps the
  * quantized-coefficient round trip (encode → decode at full fidelity)
  * deterministic to within rounding of the quantizer alone.
  *
  * Both directions are the separable matrix product on flat arrays the
  * caller owns. Every output is one 8-term sum written out in a fixed
  * order, `0.0 + p0 + p1 + … + p7`, the order of the original dense loops,
  * so results are bit-identical to them (the JVM neither reassociates nor
  * fuses double arithmetic). [[inverse]] skips the all-zero columns of the
  * coefficient block in its first pass: every term of such a column is
  * `±0.0`, so its sum is exactly `+0.0`, which is written directly.
  */
object Dct {
  final val N = 8

  /** `basis(u * 8 + x) = C(u, x)`. */
  private val basis: Array[Double] = Array.tabulate(N * N) { i =>
    val u = i / N; val x = i % N
    val c = if (u == 0) 1.0 / math.sqrt(2.0) else 1.0
    c / 2.0 * math.cos((2 * x + 1) * u * math.Pi / 16.0)
  }

  /** `C(0, x)`, the same for every x: the only basis value a DC-only block
    * uses. Its inverse is the constant `(dcBasis * F00) * dcBasis`.
    */
  val dcBasis: Double = basis(0)

  private def checkSizes(a: Array[Double], out: Array[Double], tmp: Array[Double]): Unit =
    require(a.length == 64 && out.length == 64 && tmp.length == 64,
      s"blocks must be 8x8, got ${a.length}, ${out.length}, ${tmp.length}")

  /** Forward DCT of one 8×8 block (row-major, length 64). */
  def forward(block: Array[Double]): Array[Double] = {
    val out = new Array[Double](64)
    forward(block, out, new Array[Double](64))
    out
  }

  /** Forward DCT of `block` into `out`, using `tmp` as scratch. All three
    * are row-major 8×8 arrays; `out` and `tmp` are overwritten.
    */
  def forward(block: Array[Double], out: Array[Double], tmp: Array[Double]): Unit = {
    checkSizes(block, out, tmp)
    val b = basis
    var y = 0 // tmp = C * f, column y of f at a time
    while (y < N) {
      val f0 = block(y);      val f1 = block(8 + y);  val f2 = block(16 + y); val f3 = block(24 + y)
      val f4 = block(32 + y); val f5 = block(40 + y); val f6 = block(48 + y); val f7 = block(56 + y)
      var u = 0
      while (u < N) {
        val bu = u * N
        tmp(bu + y) = 0.0 + b(bu) * f0 + b(bu + 1) * f1 + b(bu + 2) * f2 + b(bu + 3) * f3 +
          b(bu + 4) * f4 + b(bu + 5) * f5 + b(bu + 6) * f6 + b(bu + 7) * f7
        u += 1
      }
      y += 1
    }
    var u = 0 // out = tmp * Cᵀ, row u of tmp at a time
    while (u < N) {
      val tu = u * N
      val t0 = tmp(tu);     val t1 = tmp(tu + 1); val t2 = tmp(tu + 2); val t3 = tmp(tu + 3)
      val t4 = tmp(tu + 4); val t5 = tmp(tu + 5); val t6 = tmp(tu + 6); val t7 = tmp(tu + 7)
      var v = 0
      while (v < N) {
        val bv = v * N
        out(tu + v) = 0.0 + t0 * b(bv) + t1 * b(bv + 1) + t2 * b(bv + 2) + t3 * b(bv + 3) +
          t4 * b(bv + 4) + t5 * b(bv + 5) + t6 * b(bv + 6) + t7 * b(bv + 7)
        v += 1
      }
      u += 1
    }
  }

  /** Inverse DCT of one 8×8 coefficient block (row-major, length 64). */
  def inverse(coef: Array[Double]): Array[Double] = {
    val out = new Array[Double](64)
    inverse(coef, out, new Array[Double](64))
    out
  }

  /** Inverse DCT of `coef` into `out`, using `tmp` as scratch. All three
    * are row-major 8×8 arrays; `out` and `tmp` are overwritten.
    */
  def inverse(coef: Array[Double], out: Array[Double], tmp: Array[Double]): Unit = {
    checkSizes(coef, out, tmp)
    val b = basis
    var v = 0 // tmp = Cᵀ * F, column v of F at a time; a zero column sums to +0.0
    while (v < N) {
      val f0 = coef(v);      val f1 = coef(8 + v);  val f2 = coef(16 + v); val f3 = coef(24 + v)
      val f4 = coef(32 + v); val f5 = coef(40 + v); val f6 = coef(48 + v); val f7 = coef(56 + v)
      val nonZero = (f0 != 0.0) | (f1 != 0.0) | (f2 != 0.0) | (f3 != 0.0) |
        (f4 != 0.0) | (f5 != 0.0) | (f6 != 0.0) | (f7 != 0.0)
      var x = 0
      if (nonZero) {
        while (x < N) {
          tmp(x * N + v) = 0.0 + b(x) * f0 + b(8 + x) * f1 + b(16 + x) * f2 + b(24 + x) * f3 +
            b(32 + x) * f4 + b(40 + x) * f5 + b(48 + x) * f6 + b(56 + x) * f7
          x += 1
        }
      } else {
        while (x < N) { tmp(x * N + v) = 0.0; x += 1 }
      }
      v += 1
    }
    var x = 0 // out = tmp * C, row x of tmp at a time
    while (x < N) {
      val tx = x * N
      val t0 = tmp(tx);     val t1 = tmp(tx + 1); val t2 = tmp(tx + 2); val t3 = tmp(tx + 3)
      val t4 = tmp(tx + 4); val t5 = tmp(tx + 5); val t6 = tmp(tx + 6); val t7 = tmp(tx + 7)
      var y = 0
      while (y < N) {
        out(tx + y) = 0.0 + t0 * b(y) + t1 * b(8 + y) + t2 * b(16 + y) + t3 * b(24 + y) +
          t4 * b(32 + y) + t5 * b(40 + y) + t6 * b(48 + y) + t7 * b(56 + y)
        y += 1
      }
      x += 1
    }
  }
}
