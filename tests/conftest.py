import numpy as np
import pytest

from calderon.forward import SchrodingerOperator
from calderon.geometry import DiskDomain, build_disk_mesh
from calderon.scenarios import load_scenario

P_STAR = 0.2 + 0.1j
BUMP_WIDTH = 0.25


def dense_cauchy_transform(f_values, mesh, eval_points=None):
    """Reference solid Cauchy transform: the all-pairs dense quadrature
    (point masses, disk-averaged kernel inside each source's equal-area
    disk, smooth-window singularity subtraction) that
    calderon.holo.cauchy_transform splits into a far and a near field."""
    from scipy.interpolate import LinearNDInterpolator
    from scipy.spatial import cKDTree

    f = np.asarray(f_values, dtype=complex)
    support = np.abs(f) > 0
    sub_radius = 4.0 * mesh.resolution
    pts = np.column_stack([mesh.vertices.real, mesh.vertices.imag])
    dist, _ = cKDTree(pts[support]).query(pts)
    support = dist <= sub_radius + 1e-12
    if eval_points is None:
        z, f_at_eval = mesh.vertices, f
    else:
        z = np.asarray(eval_points, dtype=complex).ravel()
        zp = np.column_stack([z.real, z.imag])
        f_at_eval = LinearNDInterpolator(pts, f.real, fill_value=0.0)(zp) + 1j * LinearNDInterpolator(
            pts, f.imag, fill_value=0.0
        )(zp)
    src = mesh.vertices[support]
    areas = mesh.vertex_areas[support]
    radii = np.sqrt(areas / np.pi)
    d = z[:, None] - src[None, :]
    absd = np.abs(d)
    near = absd < radii[None, :]
    kern = np.empty_like(d)
    np.divide(1.0, np.conj(d), out=kern, where=~near)
    kern[near] = (d / radii[None, :] ** 2)[near]
    kern *= areas[None, :]
    window = 0.5 * (1.0 + np.cos(np.pi * np.clip(absd / sub_radius, 0.0, 1.0)))
    out = kern @ f[support] - f_at_eval * np.sum(kern * window, axis=1)
    return out / np.pi


def gaussian_bump(z, center=P_STAR, width=BUMP_WIDTH, amplitude=1.0):
    return amplitude * np.exp(-np.abs(np.asarray(z) - center) ** 2 / width**2)


@pytest.fixture(scope="session")
def full_domain():
    return DiskDomain()


@pytest.fixture(scope="session")
def quarter_domain():
    return DiskDomain(gamma0=(0.0, np.pi / 2))


@pytest.fixture(scope="session")
def mesh_mid(full_domain):
    """Full-data disk at moderate resolution for cheap unit tests."""
    return build_disk_mesh(0.04, full_domain)


@pytest.fixture(scope="session")
def mesh_coarse(full_domain):
    return build_disk_mesh(0.08, full_domain)


@pytest.fixture(scope="session")
def mesh_fine(full_domain):
    return build_disk_mesh(0.02, full_domain)


@pytest.fixture(scope="session")
def ref_scenario():
    """The acceptance reference scenario (quarter-circle gamma0, bump at p*);
    epsilon raised to 1.0 so the Carleman constraint h <= epsilon/5 admits
    the reference h list."""
    return load_scenario({"name": "reference", "seed": 0, "epsilon": 1.0})


@pytest.fixture(scope="session")
def ref_mesh(ref_scenario):
    return ref_scenario.build_mesh()


@pytest.fixture(scope="session")
def quarter_mesh_mid(quarter_domain):
    return build_disk_mesh(0.04, quarter_domain)


@pytest.fixture
def operator_builds(monkeypatch):
    """Every SchrodingerOperator constructed while the test runs, in order."""
    built = []
    init = SchrodingerOperator.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SchrodingerOperator, "__init__", counting_init)
    return built
