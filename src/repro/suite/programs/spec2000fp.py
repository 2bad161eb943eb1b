"""SPEC CFP2000-style kernels (Figure 16's cross-validation set).

Twelve kernels in the character of their namesakes.  Several are
deliberately cache-friendly or latency-tolerant (blocked matmul,
short working sets) so that — as the paper observes for SPEC2000 —
aggressive prefetching is *desirable* on some of them while useless
or harmful on others; the generality caveat of Section 7.2.2 depends
on that contrast.
"""

from __future__ import annotations

from repro.suite.datagen import rng_for
from repro.suite.registry import Benchmark, register


WUPWISE_SOURCE = """
// Lattice-QCD-like: blocked complex matrix multiply (zgemm flavour).
float ar[400]; float ai[400];
float br[400]; float bi[400];
float cr[400]; float ci[400];

void main() {
  int i;
  for (i = 0; i < 20; i = i + 1) {
    int j;
    for (j = 0; j < 20; j = j + 1) {
      float accr = 0.0;
      float acci = 0.0;
      int k;
      for (k = 0; k < 20; k = k + 1) {
        float xr = ar[i * 20 + k];
        float xi = ai[i * 20 + k];
        float yr = br[k * 20 + j];
        float yi = bi[k * 20 + j];
        accr = accr + xr * yr - xi * yi;
        acci = acci + xr * yi + xi * yr;
      }
      cr[i * 20 + j] = accr;
      ci[i * 20 + j] = acci;
    }
  }
  float cs = 0.0;
  for (i = 0; i < 400; i = i + 21) {
    cs = cs + cr[i] + ci[i] * 0.5;
  }
  out(cs);
}
"""

SWIM2K_SOURCE = """
// swim at 2000 scale: bigger sea, two time levels (prefetch-friendly).
float u[6144];
float un[6144];

void main() {
  int t;
  for (t = 0; t < 1; t = t + 1) {
    int i;
    for (i = 96; i < 6048; i = i + 1) {
      un[i] = u[i] + 0.1 * (u[i - 1] + u[i + 1] + u[i - 96]
                            + u[i + 96] - 4.0 * u[i]);
    }
    for (i = 96; i < 6048; i = i + 1) {
      u[i] = un[i];
    }
  }
  float cs = 0.0;
  int k;
  for (k = 0; k < 6144; k = k + 41) {
    cs = cs + u[k];
  }
  out(cs);
}
"""

MGRID2K_SOURCE = """
// mgrid at 2000 scale: 27-point-ish smoothing reduced to 1-D triples
// over a long array (streaming, prefetch-friendly).
float grid[6144];
float smoothed[6144];

void main() {
  int pass;
  for (pass = 0; pass < 1; pass = pass + 1) {
    int i;
    for (i = 2; i < 6142; i = i + 1) {
      smoothed[i] = 0.05 * grid[i - 2] + 0.25 * grid[i - 1]
                    + 0.4 * grid[i] + 0.25 * grid[i + 1]
                    + 0.05 * grid[i + 2];
    }
    for (i = 2; i < 6142; i = i + 1) {
      grid[i] = smoothed[i];
    }
  }
  float cs = 0.0;
  int k;
  for (k = 0; k < 6144; k = k + 37) {
    cs = cs + grid[k];
  }
  out(cs);
}
"""

APPLU_SOURCE = """
// applu: lower-upper SSOR sweep over a structured grid (wavefront
// dependence limits ILP; memory behaviour is streaming).
float rsd[4096];
float flux[4096];

void main() {
  int sweep;
  for (sweep = 0; sweep < 1; sweep = sweep + 1) {
    int i;
    // Lower triangular sweep.
    for (i = 64; i < 4096; i = i + 1) {
      rsd[i] = rsd[i] - 0.2 * rsd[i - 1] - 0.1 * rsd[i - 64]
               + flux[i] * 0.01;
    }
    // Upper triangular sweep.
    for (i = 4031; i >= 0; i = i - 1) {
      rsd[i] = rsd[i] - 0.2 * rsd[i + 1] - 0.1 * rsd[i + 64];
    }
  }
  float cs = 0.0;
  int k;
  for (k = 0; k < 4096; k = k + 29) {
    cs = cs + rsd[k];
  }
  out(cs);
}
"""

GALGEL_SOURCE = """
// galgel: Galerkin spectral coefficients — small dense eigen-ish
// iterations that fit in cache (prefetching buys nothing).
float basis[576];    // 24x24
float coef[24];
float next[24];

void main() {
  int iter;
  for (iter = 0; iter < 18; iter = iter + 1) {
    int i;
    float norm = 0.0;
    for (i = 0; i < 24; i = i + 1) {
      float acc = 0.0;
      int j;
      for (j = 0; j < 24; j = j + 1) {
        acc = acc + basis[i * 24 + j] * coef[j];
      }
      next[i] = acc;
      norm = norm + acc * acc;
    }
    float scale = 1.0 / sqrt(norm + 0.0001);
    for (i = 0; i < 24; i = i + 1) {
      coef[i] = next[i] * scale;
    }
  }
  float cs = 0.0;
  int k;
  for (k = 0; k < 24; k = k + 1) {
    cs = cs + coef[k] * (k + 1);
  }
  out(cs);
}
"""

EQUAKE_SOURCE = """
// equake: sparse matrix-vector product in CSR form (indirect access —
// the addresses prefetching cannot predict, plus long index streams).
float values[4800];
int colidx[4800];
int rowptr[801];
float x[800];
float y[800];

void main() {
  int r;
  for (r = 0; r < 800; r = r + 1) {
    float acc = 0.0;
    int p;
    int stop = rowptr[r + 1];
    for (p = rowptr[r]; p < stop; p = p + 1) {
      acc = acc + values[p] * x[colidx[p]];
    }
    y[r] = acc;
  }
  float cs = 0.0;
  for (r = 0; r < 800; r = r + 13) {
    cs = cs + y[r];
  }
  out(cs);
}
"""

FACEREC_SOURCE = """
// facerec: normalized cross-correlation of a 16x16 template over a
// 48x48 image (2-D sliding window, streaming reads).
float image[2304];
float templ[256];
float best_score;
int best_pos;

void main() {
  float best = 0.0 - 1000000.0;
  int bpos = 0;
  int y;
  for (y = 0; y < 32; y = y + 4) {
    int x;
    for (x = 0; x < 32; x = x + 4) {
      float score = 0.0;
      int ty;
      for (ty = 0; ty < 16; ty = ty + 1) {
        int tx;
        for (tx = 0; tx < 16; tx = tx + 1) {
          float d = image[(y + ty) * 48 + x + tx] - templ[ty * 16 + tx];
          score = score - d * d;
        }
      }
      if (score > best) {
        best = score;
        bpos = y * 48 + x;
      }
    }
  }
  best_score = best;
  best_pos = bpos;
  out(best);
  out(bpos);
}
"""

AMMP_SOURCE = """
// ammp: molecular mechanics nonbond step with cell-list style
// clustered access (partially cache-resident).
float px[600]; float py[600]; float pz[600];
float fx[600]; float fy[600]; float fz[600];
int neighbors[4000];   // 2000 pairs
int npairs;

void main() {
  int p;
  for (p = 0; p < npairs; p = p + 1) {
    int i = neighbors[p * 2];
    int j = neighbors[p * 2 + 1];
    float dx = px[i] - px[j];
    float dy = py[i] - py[j];
    float dz = pz[i] - pz[j];
    float r2 = dx * dx + dy * dy + dz * dz + 0.02;
    float inv = 1.0 / r2;
    float coulomb = inv * 0.8;
    float vdw = inv * inv * inv * (inv - 0.3);
    float force = coulomb + vdw;
    fx[i] = fx[i] + force * dx;
    fy[i] = fy[i] + force * dy;
    fz[i] = fz[i] + force * dz;
    fx[j] = fx[j] - force * dx;
    fy[j] = fy[j] - force * dy;
    fz[j] = fz[j] - force * dz;
  }
  float cs = 0.0;
  int k;
  for (k = 0; k < 600; k = k + 11) {
    cs = cs + fx[k] + fy[k] + fz[k];
  }
  out(cs);
}
"""

LUCAS_SOURCE = """
// lucas: Lucas-Lehmer-style modular squaring over a long digit
// vector with carries (integer-heavy FP code; streaming).
int digits[3000];
int ndigits;

void main() {
  int pass;
  for (pass = 0; pass < 3; pass = pass + 1) {
    int carry = 0;
    int i;
    for (i = 0; i < ndigits; i = i + 1) {
      int d = digits[i];
      int sq = d * d + carry;
      digits[i] = sq % 10000;
      carry = sq / 10000;
      if (carry > 9999) { carry = carry % 10000; }
    }
  }
  int cs = 0;
  int k;
  for (k = 0; k < ndigits; k = k + 7) {
    cs = cs + digits[k] * (k % 5 + 1);
  }
  out(cs);
}
"""

SIXTRACK_SOURCE = """
// sixtrack: particle tracking through a lattice of thin-lens maps
// (small state per particle, long particle stream).
float x[1024]; float xp[1024];
float y[1024]; float yp[1024];
int nparticles;

void main() {
  int turn;
  for (turn = 0; turn < 4; turn = turn + 1) {
    int p;
    for (p = 0; p < nparticles; p = p + 1) {
      float qx = x[p];
      float qy = y[p];
      // quad kick
      xp[p] = xp[p] - 0.02 * qx;
      yp[p] = yp[p] + 0.02 * qy;
      // sextupole kick
      xp[p] = xp[p] + 0.001 * (qx * qx - qy * qy);
      yp[p] = yp[p] - 0.002 * qx * qy;
      // drift
      x[p] = qx + xp[p];
      y[p] = qy + yp[p];
    }
  }
  float cs = 0.0;
  int k;
  for (k = 0; k < nparticles; k = k + 9) {
    cs = cs + x[k] + y[k];
  }
  out(cs);
}
"""

APSI2K_SOURCE = """
// 301.apsi: pollutant advection upwind scheme on a long transect
// (streaming with a data-dependent upwind branch).
float conc[5120];
float wind[5120];
float next[5120];

void main() {
  int step;
  for (step = 0; step < 1; step = step + 1) {
    int i;
    for (i = 1; i < 5119; i = i + 1) {
      float w = wind[i];
      float gradient;
      if (w > 0.0) {
        gradient = conc[i] - conc[i - 1];
      } else {
        gradient = conc[i + 1] - conc[i];
      }
      next[i] = conc[i] - w * gradient * 0.1;
    }
    for (i = 1; i < 5119; i = i + 1) {
      conc[i] = next[i];
    }
  }
  float cs = 0.0;
  int k;
  for (k = 0; k < 5120; k = k + 43) {
    cs = cs + conc[k];
  }
  out(cs);
}
"""

FMA3D_SOURCE = """
// fma3d: explicit finite-element update — gather nodal positions per
// element, compute strain-ish quantity, scatter forces.
float nodes[3072];     // 1024 nodes x 3 coords
int elems[3200];       // 800 elements x 4 node ids
int nelems;
float forces[3072];

void main() {
  int e;
  for (e = 0; e < nelems; e = e + 1) {
    int n0 = elems[e * 4];
    int n1 = elems[e * 4 + 1];
    int n2 = elems[e * 4 + 2];
    int n3 = elems[e * 4 + 3];
    float vol = 0.0;
    int c;
    for (c = 0; c < 3; c = c + 1) {
      float d1 = nodes[n1 * 3 + c] - nodes[n0 * 3 + c];
      float d2 = nodes[n2 * 3 + c] - nodes[n0 * 3 + c];
      float d3 = nodes[n3 * 3 + c] - nodes[n0 * 3 + c];
      vol = vol + d1 * d2 * d3;
    }
    float pressure = vol * 0.05;
    for (c = 0; c < 3; c = c + 1) {
      forces[n0 * 3 + c] = forces[n0 * 3 + c] - pressure;
      forces[n1 * 3 + c] = forces[n1 * 3 + c] + pressure * 0.33;
      forces[n2 * 3 + c] = forces[n2 * 3 + c] + pressure * 0.33;
      forces[n3 * 3 + c] = forces[n3 * 3 + c] + pressure * 0.34;
    }
  }
  float cs = 0.0;
  int k;
  for (k = 0; k < 3072; k = k + 17) {
    cs = cs + forces[k];
  }
  out(cs);
}
"""


def _make_simple(name: str, arrays: dict[str, tuple[int, float, float]]):
    def make_inputs(dataset: str) -> dict[str, list]:
        rng = rng_for(name, dataset)
        scale = 1.0 if dataset == "train" else 2.5
        return {
            arr: [rng.uniform(low * scale, high * scale)
                  for _ in range(size)]
            for arr, (size, low, high) in arrays.items()
        }
    return make_inputs


def _equake_inputs(dataset: str) -> dict[str, list]:
    rng = rng_for("183.equake", dataset)
    per_row = 6
    rowptr = [0]
    values: list[float] = []
    colidx: list[int] = []
    local = dataset == "train"
    for row in range(800):
        for _ in range(per_row):
            values.append(rng.uniform(-1, 1))
            if local:
                colidx.append(max(0, min(799, row + rng.randint(-8, 8))))
            else:
                colidx.append(rng.randint(0, 799))
        rowptr.append(len(values))
    return {
        "values": values, "colidx": colidx, "rowptr": rowptr,
        "x": [rng.uniform(-1, 1) for _ in range(800)],
    }


def _ammp_inputs(dataset: str) -> dict[str, list]:
    rng = rng_for("188.ammp", dataset)
    clustered = dataset == "train"
    pos = {axis: [rng.uniform(0, 4) for _ in range(600)]
           for axis in ("px", "py", "pz")}
    neighbors = []
    for _ in range(1900):
        i = rng.randint(0, 599)
        if clustered:
            j = max(0, min(599, i + rng.randint(-20, 20)))
        else:
            j = rng.randint(0, 599)
        if i != j:
            neighbors.extend([i, j])
    return {**pos, "neighbors": neighbors,
            "npairs": [len(neighbors) // 2]}


def _lucas_inputs(dataset: str) -> dict[str, list]:
    rng = rng_for("189.lucas", dataset)
    count = 2800 if dataset == "train" else 2400
    return {"digits": rng.ints(count, 0, 9999), "ndigits": [count]}


def _fma3d_inputs(dataset: str) -> dict[str, list]:
    rng = rng_for("191.fma3d", dataset)
    local = dataset == "train"
    nodes = [rng.uniform(0, 10) for _ in range(3072)]
    elems = []
    for e in range(780):
        base = (e % 1000)
        ids = []
        for _ in range(4):
            if local:
                ids.append(max(0, min(1023, base + rng.randint(0, 12))))
            else:
                ids.append(rng.randint(0, 1023))
        elems.extend(ids)
    return {"nodes": nodes, "elems": elems, "nelems": [780]}


register(Benchmark(
    name="168.wupwise", suite="spec2000", category="fp",
    description="Blocked complex matrix multiply (lattice QCD)",
    source=WUPWISE_SOURCE,
    make_inputs=_make_simple("168.wupwise", {
        "ar": (400, -1, 1), "ai": (400, -1, 1),
        "br": (400, -1, 1), "bi": (400, -1, 1)}),
))
register(Benchmark(
    name="171.swim", suite="spec2000", category="fp",
    description="Shallow-water update at 2000 scale (streaming)",
    source=SWIM2K_SOURCE,
    make_inputs=_make_simple("171.swim", {"u": (6144, -1, 1)}),
))
register(Benchmark(
    name="172.mgrid", suite="spec2000", category="fp",
    description="Long 5-tap smoothing sweeps (streaming)",
    source=MGRID2K_SOURCE,
    make_inputs=_make_simple("172.mgrid", {"grid": (6144, -1, 1)}),
))
register(Benchmark(
    name="173.applu", suite="spec2000", category="fp",
    description="SSOR lower/upper wavefront sweeps",
    source=APPLU_SOURCE,
    make_inputs=_make_simple("173.applu", {
        "rsd": (4096, -1, 1), "flux": (4096, -1, 1)}),
))
register(Benchmark(
    name="178.galgel", suite="spec2000", category="fp",
    description="Cache-resident Galerkin power iteration",
    source=GALGEL_SOURCE,
    make_inputs=_make_simple("178.galgel", {
        "basis": (576, -0.3, 0.3), "coef": (24, -1, 1)}),
))
register(Benchmark(
    name="183.equake", suite="spec2000", category="fp",
    description="CSR sparse matrix-vector product",
    source=EQUAKE_SOURCE, make_inputs=_equake_inputs,
))
register(Benchmark(
    name="187.facerec", suite="spec2000", category="fp",
    description="Template matching: sliding-window correlation",
    source=FACEREC_SOURCE,
    make_inputs=_make_simple("187.facerec", {
        "image": (2304, 0, 1), "templ": (256, 0, 1)}),
))
register(Benchmark(
    name="188.ammp", suite="spec2000", category="fp",
    description="Molecular mechanics nonbond forces (cell lists)",
    source=AMMP_SOURCE, make_inputs=_ammp_inputs,
))
register(Benchmark(
    name="189.lucas", suite="spec2000", category="fp",
    description="Long-vector modular squaring with carries",
    source=LUCAS_SOURCE, make_inputs=_lucas_inputs,
))
def _sixtrack_inputs(dataset: str) -> dict[str, list]:
    rng = rng_for("200.sixtrack", dataset)
    scale = 1.0 if dataset == "train" else 2.5
    return {
        "x": [rng.uniform(-scale, scale) for _ in range(1024)],
        "xp": [rng.uniform(-0.1, 0.1) for _ in range(1024)],
        "y": [rng.uniform(-scale, scale) for _ in range(1024)],
        "yp": [rng.uniform(-0.1, 0.1) for _ in range(1024)],
        "nparticles": [1000],
    }


register(Benchmark(
    name="200.sixtrack", suite="spec2000", category="fp",
    description="Accelerator particle tracking (thin-lens maps)",
    source=SIXTRACK_SOURCE, make_inputs=_sixtrack_inputs,
))
register(Benchmark(
    name="301.apsi", suite="spec2000", category="fp",
    description="Upwind pollutant advection on a long transect",
    source=APSI2K_SOURCE,
    make_inputs=_make_simple("301.apsi", {
        "conc": (5120, 0, 1), "wind": (5120, -1, 1)}),
))
register(Benchmark(
    name="191.fma3d", suite="spec2000", category="fp",
    description="Explicit FEM gather/compute/scatter",
    source=FMA3D_SOURCE, make_inputs=_fma3d_inputs,
))
