"""Model geometries and their discrete chart operators.

Two backends share one convention: a reference Kahler form written in a chart
as omega0 = i*sigma0 dz^dzbar, with i dz^dzbar = 2 dx^dy, so that

    rho_phi   = 1 + (mixed derivative of phi)/sigma0,
    Delta_phi = (mixed derivative)/(sigma0*rho)   (the dbar-Laplacian).

Torus: uniform periodic grid, pseudo-spectral differentiation (scipy.fft),
exact for all represented modes. Sphere (S^1-invariant): momentum coordinate
mu = |z|^2/(1+|z|^2) on a cell-centered uniform grid; in the cylinder chart
w = log z the reference density is sigma0 = 2*mu*(1-mu) and the mixed
derivative becomes mu*(1-mu)*d/dmu(mu*(1-mu)*d/dmu), discretized in
conservative flux form with zero flux at the boundary faces (pole regularity).

Each backend class describes itself, so no other module decides what a
backend is: kind, checkpoint_tag, grid_params (what a config sets and a
checkpoint stores, packed as grid_format), coeffs_shape (the shape of phi's
coefficients, None where they are the field; field_from_coeffs forms phi),
checkpoint_layout (a checkpoint's one version and dtype), explicit_initial
and random_initial. BACKENDS lists the backend classes.
"""

import math
import numbers
import threading

import numpy as np
import scipy.fft
from scipy.linalg.lapack import dgtsv

from .errors import BadGrid, NonPositiveDensity, ShapeError, SingularSolve

TWO_PI = 2.0 * np.pi


def _is_pow2(n):
    return isinstance(n, numbers.Integral) and n >= 1 and (n & (n - 1)) == 0


class GridGeometry:
    """Field plumbing shared by the backends.

    In complex dimension 1 every Kahler class is a multiple of c_1, so
    Ric(omega0) = lambda_ke * omega0 + i d dbar(h0) on every reference. Each
    backend carries the class constant lambda_ke (1 on the sphere, 0 on every
    torus), ricci_potential0 = h0, or None where omega0 is Einstein (h0 = 0),
    and ricci_flat (Ric(omega0) = 0, so P = 0). As i d dbar(h0) integrates to
    0, lambda_ke is exactly R-bar, the average of R(omega0) (and of every
    R(omega_phi)) that the K-energy and the Calabi energy read.

    The steppers work in coefficient space: to_coeffs/from_coeffs map a real
    field there and back, truncate returns filtered copies, and the *_from_coeffs
    operators (density_from_coeffs gives rho) return real fields or numbers.
    Sphere coefficients are the field. The public real-field operators pass
    their input through check_field (grid shape, finite entries); the integrals
    check the shape and the finiteness of their sum, and the *_from_coeffs
    operators check nothing. records_off_thread says whether a trace record on
    this grid costs enough for flow.run to make it on a worker thread.
    """

    def mixed_second_derivative(self, f):
        """f_{z zbar} of a checked field (f_{w wbar} in the sphere's chart)."""
        return self.mixed_from_coeffs(self.to_coeffs(self.check_field(f)))

    def ref_laplacian(self, f):
        """Laplacian of the reference metric of a checked field, f_{z zbar}/sigma0."""
        return self.ref_laplacian_from_coeffs(self.to_coeffs(self.check_field(f)))

    def check_field(self, f):
        f = self._check_shape(f)
        if not np.isfinite(f).all():
            raise ShapeError("field contains non-finite entries")
        return f

    def _check_shape(self, f):
        f = np.asarray(f, dtype=float)
        if f.shape != self.shape:
            raise ShapeError(f"field shape {f.shape} != grid shape {self.shape}")
        return f

    @staticmethod
    def _finite_sum(scale, vals):
        """scale * vals.sum(), raising ShapeError where it is not finite, as
        any NaN or infinity in vals makes it."""
        total = scale * float(vals.sum())
        if not math.isfinite(total):
            raise ShapeError("integrand contains non-finite entries")
        return total


class _WorkArray(threading.local):
    """A complex array of one shape for each thread, made on the thread's first read."""

    def __init__(self, shape):
        self.array = np.empty(shape, dtype=complex)


class TorusGeometry(GridGeometry):
    """Flat-chart torus [0, L)^2 with reference density sigma0(x, y).

    Fields live on an (nx, ny) grid, x along axis 0. sigma0 is 1 plus the
    (k_x, k_y, amplitude) cosines of sigma0_modes (none: the flat torus), so
    oracles have closed forms. Coefficients are rfft2 arrays of shape
    (nx, ny//2 + 1): to_coeffs is one forward transform, and from_coeffs,
    mixed_ and ref_laplacian_from_coeffs one inverse transform each.
    Every inverse transform writes into a complex work array that the
    geometry allocates once per thread, on the thread's first transform, so
    threads share a geometry: flow.run makes trace records on a worker
    thread while the steps go on (records_off_thread, 2^14 nodes and up).
    """

    kind = "torus"
    checkpoint_tag = 0
    grid_params = ("nx", "ny", "length")
    grid_format = "<QQd"
    checkpoint_layout = (3, "<c16")  # (version, dtype): phi's rfft2 coefficients

    @staticmethod
    def coeffs_shape(shape):
        """The rfft2 layout of a grid of this shape."""
        return (shape[0], shape[1] // 2 + 1)

    @staticmethod
    def field_from_coeffs(fh, shape):
        """irfft2 of fh on a grid of this shape, bitwise from_coeffs, for read_checkpoint."""
        return scipy.fft.irfft2(fh, s=shape)

    def __init__(self, nx, ny, length, sigma0_modes=()):
        if not (_is_pow2(nx) and _is_pow2(ny)) or nx < 16 or ny < 16:
            raise BadGrid(f"torus sizes must be integer powers of two >= 16, got {nx} x {ny}")
        if not (0.0 < length < np.inf):
            raise BadGrid(f"torus length must be finite and > 0, got {length}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.length = float(length)
        self.sigma0_modes = tuple((int(kx), int(ky), float(a)) for kx, ky, a in sigma0_modes)
        if not np.isfinite([amp for _, _, amp in self.sigma0_modes]).all():
            raise BadGrid(f"sigma0 amplitudes must be finite, got {self.sigma0_modes}")
        self.shape = (self.nx, self.ny)

        x = np.arange(self.nx) * (self.length / self.nx)
        y = np.arange(self.ny) * (self.length / self.ny)
        self.x, self.y = np.meshgrid(x, y, indexing="ij")
        self.sigma0 = self._cosine_sum(np.ones(self.shape), self.sigma0_modes)
        self._sigma0_min = float(self.sigma0.min())
        if self._sigma0_min <= 0.0:
            raise NonPositiveDensity(f"min sigma0 = {self._sigma0_min:.6g} <= 0")

        # spectral tables on the rfft2 layout (full axis 0, half axis 1)
        mx = scipy.fft.fftfreq(self.nx, d=1.0 / self.nx)
        my = scipy.fft.rfftfreq(self.ny, d=1.0 / self.ny)
        kx = (TWO_PI / self.length) * mx[:, None]
        ky = (TWO_PI / self.length) * my[None, :]
        self._mixed_symbol = -0.25 * (kx * kx + ky * ky)
        # 0 at the zero mode; numpy divides complex by real as a product with
        # 1/real, so multiplying by this is bitwise that division
        with np.errstate(divide="ignore"):
            inverse = 1.0 / self._mixed_symbol
        self._inverse_symbol = np.where(self._mixed_symbol != 0.0, inverse, 0.0)
        # first-derivative symbols zero the Nyquist mode (odd derivative of a
        # real signal has no consistent Nyquist phase)
        kx_d = kx.copy()
        ky_d = ky.copy()
        kx_d[self.nx // 2, :] = 0.0
        ky_d[:, -1] = 0.0
        self._dx_symbol = 1j * kx_d
        self._dy_symbol = 1j * ky_d
        self._cell = 2.0 * (self.length / self.nx) * (self.length / self.ny)
        # Parseval: rfft2 columns 0 and ny/2 hold one mode, the others a conjugate pair
        pairs = np.where((my == 0) | (my == self.ny // 2), 0.25, 0.5) / (self.nx * self.ny)
        self._dirichlet_weight = self._cell * pairs * (kx_d * kx_d + ky_d * ky_d)
        # 2/3-rule truncation mask used by the time steppers
        self._keep_mask = (np.abs(mx[:, None]) <= self.nx // 3) & (my[None, :] <= self.ny // 3)
        self._work = _WorkArray(self.coeffs_shape(self.shape))
        # a record outweighs a worker thread's overhead from 128^2 nodes on, not at 64^2
        self.records_off_thread = self.nx * self.ny >= 2 ** 14
        self.volume = self._cell * float(np.sum(self.sigma0))  # integrate(1), bitwise
        # Ric(omega0) = i d dbar(h0) with h0 = -log sigma0, kept only where
        # omega0 is curved. Its chart density r0 = -(log sigma0)_{z zbar} is
        # mixed(h0) bitwise (negation commutes with the rounded transforms)
        # and exact zeros when sigma0 == 1
        log_sigma0 = np.log(self.sigma0)
        self.ric0_density = -self.mixed_second_derivative(log_sigma0)
        self.lambda_ke = 0.0
        self.ricci_potential0 = -log_sigma0 if self.sigma0_modes else None
        self.ricci_flat = self.ricci_potential0 is None
        # h0*sigma0: closed_form_P takes h0's omega_phi-mean from its dot product with rho
        self.ricci_potential0_density = (None if self.ricci_flat
                                         else self.ricci_potential0 * self.sigma0)

    # -- initial data --------------------------------------------------------

    def _cosine_sum(self, total, modes):
        for kx, ky, amp in modes:
            total = total + amp * np.cos(TWO_PI * (kx * self.x + ky * self.y) / self.length)
        return total

    def explicit_initial(self, modes):
        """The cosine sum of (k_x, k_y, amplitude) modes, built like sigma0."""
        return self._cosine_sum(np.zeros(self.shape), modes)

    def random_initial(self, rng, modes, decay):
        """Seeded band-limited field with |k|^(-decay) spectral envelope: each
        amp*cos(k.x + phase) puts (nx*ny/2)*amp*e^(i*phase) at k and its conjugate
        at -k of a full spectrum, folded onto the grid as the cosine aliases."""
        spectrum = np.zeros(self.shape, dtype=complex)
        for ky in range(0, modes + 1):
            for kx in range(-modes, modes + 1):
                if ky == 0 and kx <= 0:
                    continue  # one representative per conjugate pair
                norm = float(np.hypot(kx, ky))
                if norm > modes:
                    continue
                amp = rng.standard_normal() * norm ** (-decay)
                c = (0.5 * self.nx * self.ny * amp) * np.exp(1j * rng.uniform(0.0, TWO_PI))
                spectrum[kx % self.nx, ky % self.ny] += c
                spectrum[-kx % self.nx, -ky % self.ny] += np.conj(c)
        return self.from_coeffs(spectrum[:, : self.ny // 2 + 1])

    # -- coefficient space and chart operators -------------------------------

    def to_coeffs(self, f):
        return scipy.fft.rfft2(f)

    def _inverse(self, fh, symbol=None):
        """irfft2 of symbol*fh (or fh), bitwise, as a fresh field: the work array takes
        the product or copy and its axis-0 transform, so fh is left as it was."""
        work = self._work.array
        if symbol is None:
            np.copyto(work, fh)
        else:
            np.multiply(symbol, fh, out=work)
        half = scipy.fft.ifft(work, axis=0, overwrite_x=True)
        return scipy.fft.irfft(half, n=self.ny, axis=1)

    def from_coeffs(self, fh):
        return self._inverse(fh)

    def truncate(self, fh):
        """New coefficients: fh with its modes outside the 2/3 ball zeroed (steppers)."""
        return fh * self._keep_mask

    def mixed_from_coeffs(self, fh):
        """f_{z zbar} = (f_xx + f_yy)/4, spectrally: one inverse transform."""
        return self._inverse(fh, self._mixed_symbol)

    def ref_laplacian_from_coeffs(self, fh):
        lap = self.mixed_from_coeffs(fh)  # a new field: divided in place
        if self.sigma0_modes:  # else sigma0 is all ones, and x/1.0 == x
            lap /= self.sigma0
        return lap

    def density_from_coeffs(self, fh):
        """rho = 1 + f_{z zbar}/sigma0 as a new field: one inverse transform."""
        rho = self.ref_laplacian_from_coeffs(fh)  # a new field: 1 added in place
        return np.add(rho, 1.0, out=rho)

    def grad_chart_sq_from_coeffs(self, fh):
        """|f_z|^2 = (f_x^2 + f_y^2)/4, by two inverse transforms."""
        fx = self._inverse(fh, self._dx_symbol)
        fy = self._inverse(fh, self._dy_symbol)
        fx *= fx  # new fields: squared and summed in place
        fx += np.multiply(fy, fy, out=fy)
        fx *= 0.25
        return fx

    def dirichlet_energy_from_coeffs(self, fh):
        """The grid sum of 2 |f_z|^2 dx dy by Parseval: no transform, 0.0 for a constant."""
        return float(np.sum(self._dirichlet_weight * (fh.real * fh.real + fh.imag * fh.imag)))

    # -- measures ------------------------------------------------------------

    def integrate(self, f, weight=None):
        """integral of f * weight against omega0 (weight relative to omega0). A
        wrong shape of f, or a NaN or infinity in f or weight, raises ShapeError:
        the latter from the sum (_finite_sum), with no pass over f."""
        f = self._check_shape(f)
        vals = f * (self.sigma0 if weight is None else weight)
        if weight is not None:
            vals *= self.sigma0
        return self._finite_sum(self._cell, vals)

    def chart_integral(self, f):
        """integral of f against the flat chart measure 2 dx dy."""
        return self._finite_sum(self._cell, self._check_shape(f))

    # -- solves and step control ---------------------------------------------

    def solve_reference_poisson(self, g):
        """Coefficients of the zero-chart-mean u with ref_laplacian(u) = g.

        Direct spectral inversion of u_{z zbar} = g*sigma0 (one forward
        transform); the zero mode of the right side must vanish (guaranteed
        by the caller's compatibility projection) and is discarded.
        """
        return self.to_coeffs(g * self.sigma0) * self._inverse_symbol

    def solve_shifted(self, b, dt_c):
        """Coefficients of u with (Id - dt_c * L0) u = b, L0 f = f_{z zbar} / min(sigma0).

        L0 takes the largest coefficient 1/sigma0 of ref_laplacian everywhere
        (the two are equal on the flat torus), so the solve is one forward
        transform and one diagonal division, exact to rounding for any dt_c >= 0.
        """
        inverse = 1.0 - (dt_c / self._sigma0_min) * self._mixed_symbol  # a new array
        bh = self.to_coeffs(b)  # times 1/inverse in place: bitwise bh/inverse (_inverse_symbol)
        return np.multiply(bh, np.divide(1.0, inverse, out=inverse), out=bh)

    def heat_dt_scale(self, rho):
        """Explicit heat limit of Delta_phi: 4 * h^2 * min(sigma0*rho)."""
        h = self.length / max(self.nx, self.ny)
        return 4.0 * h * h * float((self.sigma0 * rho).min())


class SphereGeometry(GridGeometry):
    """S^1-reduced round sphere on a cell-centered uniform mu grid.

    Nodes mu_i = (i + 1/2)/nmu carry quadrature weight 4*pi/nmu. The chart
    density sigma0 = 2*mu*(1-mu) (cylinder chart) makes the torus formulas
    rho = 1 + mixed/sigma0 and Delta_phi = mixed/(sigma0*rho) hold verbatim.
    Ric(omega0) = omega0 (lambda_ke = 1), volume 4*pi.

    Usable range: R takes two second differences of phi, so its rounding
    error grows like eps*nmu^4 (max|R - 1| of a round metric pulled back by
    z -> 2z: 1.4e-5 at nmu 512, 5.3e-2 at 4096). The flow differences once
    and is not affected, but above nmu ~ 512 a record's calabi_energy is a
    rounding floor.
    """

    kind = "sphere"
    checkpoint_tag = 1
    grid_params = ("nmu",)
    grid_format = "<Q"
    coeffs_shape = None  # coefficients are the field: a checkpoint stores phi alone
    checkpoint_layout = (1, "<f8")

    def __init__(self, nmu):
        if not isinstance(nmu, numbers.Integral) or nmu < 32:
            raise BadGrid(f"nmu must be an integer >= 32, got {nmu}")
        self.nmu = int(nmu)
        self.lambda_ke = 1.0
        self.ricci_potential0 = None
        self.ricci_flat = False
        self.records_off_thread = False  # a record costs too little at every nmu measured
        self.shape = (self.nmu,)
        self.h = 1.0 / self.nmu
        self.quad_weight = 4.0 * np.pi / self.nmu
        self.mu = (np.arange(self.nmu) + 0.5) / self.nmu
        self._mu_one_minus_mu = self.mu * (1.0 - self.mu)
        mu_face = np.arange(self.nmu + 1) / self.nmu
        # flux coefficient mu*(1-mu) vanishes exactly at the pole faces,
        # which is the zero-flux regularity closure
        self.face_coeff = mu_face * (1.0 - mu_face)
        # h^2 * (flux divergence) as a banded (upper, diagonal, lower) matrix
        c = self.face_coeff
        self._band = np.zeros((3, self.nmu))
        self._band[0, 1:] = c[1:-1]
        self._band[1, :] = -(c[:-1] + c[1:])
        self._band[2, :-1] = c[1:-1]
        self.sigma0 = 2.0 * self.mu * (1.0 - self.mu)
        self.volume = self.quad_weight * self.nmu
        self.ric0_density = self.lambda_ke * self.sigma0

    # -- initial data --------------------------------------------------------

    def explicit_initial(self, coeffs):
        """The polynomial sum of coeffs[k] * mu^k."""
        phi = np.zeros(self.shape)
        for power, coeff in enumerate(coeffs):
            phi += coeff * self.mu ** power
        return phi

    def random_initial(self, rng, modes, decay):
        """Seeded cosine series in pi*mu with k^(-decay) envelope."""
        coeffs = rng.standard_normal(modes)
        phi = np.zeros(self.shape)
        for k in range(1, modes + 1):
            phi += coeffs[k - 1] * float(k) ** (-decay) * np.cos(k * np.pi * self.mu)
        return phi

    # -- coefficient space and chart operators -------------------------------

    def _flux_divergence(self, f):
        """d/dmu of mu*(1-mu)*df/dmu in conservative form, zero end fluxes."""
        flux = np.zeros(self.nmu + 1)
        flux[1:-1] = self.face_coeff[1:-1] * (f[1:] - f[:-1]) / self.h
        return (flux[1:] - flux[:-1]) / self.h

    def to_coeffs(self, f):
        """Identity: the finite-difference backend steps nodal values."""
        return f

    from_coeffs = to_coeffs

    def truncate(self, f):
        """A copy, as the torus's truncate is new coefficients: no modes to drop."""
        return f.copy()

    def mixed_from_coeffs(self, f):
        """f_{w wbar} in the cylinder chart: mu*(1-mu)*(flux divergence)."""
        return self._mu_one_minus_mu * self._flux_divergence(f)

    def ref_laplacian_from_coeffs(self, f):
        """Laplacian of the round reference metric: (1/2)*(flux divergence)."""
        return 0.5 * self._flux_divergence(f)

    def density_from_coeffs(self, f):
        """rho = 1 + f_{w wbar}/sigma0 as a new field."""
        rho = self.mixed_from_coeffs(f)  # a new field: 1 + rho/sigma0 in place
        return np.add(np.divide(rho, self.sigma0, out=rho), 1.0, out=rho)

    def grad_chart_sq_from_coeffs(self, f):
        """|f_w|^2 = (mu*(1-mu)*df/dmu)^2, centered differences inside."""
        d = np.empty(self.nmu)
        d[1:-1] = (f[2:] - f[:-2]) / (2.0 * self.h)
        d[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * self.h)
        d[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * self.h)
        s = self._mu_one_minus_mu * d
        return s * s

    # -- measures ------------------------------------------------------------

    def integrate(self, f, weight=None):
        """integral of f * weight against omega0 = 4*pi * integral over mu; checks
        as the torus's integrate."""
        f = self._check_shape(f)
        return self._finite_sum(self.quad_weight, f if weight is None else f * weight)

    def chart_integral(self, f):
        """Cylinder-chart integral; finite for densities vanishing at the poles."""
        return self._finite_sum(2.0 * np.pi * self.h, self._check_shape(f) / self._mu_one_minus_mu)

    def dirichlet_energy_from_coeffs(self, u):
        """2*pi * integral of mu*(1-mu)*(du/dmu)^2, as a face sum of squares."""
        d = (u[1:] - u[:-1]) / self.h
        return 2.0 * np.pi * self.h * float(np.sum(self.face_coeff[1:-1] * d * d))

    # -- solves and step control ---------------------------------------------

    def _solve_band(self, ab, b):
        """Tridiagonal solve of band ab (rows upper, diagonal, lower) by one LAPACK dgtsv
        call, which factors ab in place and leaves b as it was; a zero pivot (info > 0)
        or a non-finite u raises SingularSolve."""
        u, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b,
                        overwrite_dl=True, overwrite_d=True, overwrite_du=True)[3:]
        if info != 0 or not np.isfinite(u).all():
            raise SingularSolve(f"tridiagonal solve failed (dgtsv info {info})")
        return u

    def solve_reference_poisson(self, g):
        """Solve ref_laplacian(u) = g with the last node pinned to zero; u is
        its own coefficient array.

        One direct solve of the leading block of the flux-form band; the
        dropped last equation is implied by the compatibility of g (sums to
        zero). The caller, elliptic.solve_poisson_phi, checks the residual.
        """
        m = self.nmu - 1
        u = self._solve_band(self._band[:, :m].copy(), 2.0 * self.h * self.h * g[:m])
        return np.append(u, 0.0)

    def solve_shifted(self, b, dt_c):
        """Solve (Id - dt_c * L0) u = b, L0 = ref_laplacian, by one dgtsv call
        on the shifted band (_solve_band); u is its own coefficient array.

        Direct, so no tolerance is checked: the forward defect sits at the
        rounding floor of the flux-form operator, which grows like dt_c/h^2.
        """
        ab = -(0.5 * dt_c / (self.h * self.h)) * self._band
        ab[1] += 1.0
        return self._solve_band(ab, b)

    def heat_dt_scale(self, rho):
        """Explicit heat limit of the flux-form Delta_phi (Gershgorin bound)."""
        return 2.0 * self.h * self.h * float((rho / -self._band[1]).min())


BACKENDS = (TorusGeometry, SphereGeometry)
