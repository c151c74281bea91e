"""Scaled-down analogs of the paper's five datasets (Table I).

Paper's Table I:

    Dataset  #Instances    #Features    Size
    avazu    40,428,967     1,000,000   7.4 GB
    url       2,396,130     3,231,961   2.1 GB
    kddb     19,264,097    29,890,095   4.8 GB
    kdd12   149,639,105    54,686,452   21 GB
    WX      231,937,380    51,121,518   434 GB

The analogs shrink both axes by a per-dataset factor while preserving:

* the **determined / underdetermined** character (avazu, kdd12, WX have
  n >> d; url and kddb have d > n), and
* the **relative model sizes** (kdd12's model is ~54x avazu's in the paper;
  the analogs keep roughly that ratio), which drives the communication-cost
  differences Figures 4-6 discuss.

``scale_bytes`` on each dataset carries the paper's on-disk size so that
benches can report the simulated scale they stand in for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .synthetic import SparseDataset, SyntheticSpec, generate

__all__ = [
    "DatasetCard", "PAPER_TABLE1", "CATALOG",
    "avazu_like", "url_like", "kddb_like", "wx_like",
    "load", "dataset_names",
]


@dataclass(frozen=True)
class DatasetCard:
    """Pairing of the paper's dataset statistics with our analog spec."""

    name: str
    paper_instances: int
    paper_features: int
    paper_size_gb: float
    spec: SyntheticSpec

    @property
    def is_underdetermined(self) -> bool:
        return self.spec.is_underdetermined

    def build(self, row_scale: float = 1.0) -> SparseDataset:
        """Generate the analog; ``row_scale`` multiplies the row count.

        Scaling rows (not features) preserves the model size — and with
        it every communication cost — while letting users trade compute
        for statistical fidelity.  Scaling below ~0.01 can flip an
        underdetermined analog's conditioning; a guard prevents that.
        """
        if row_scale <= 0:
            raise ValueError("row_scale must be positive")
        spec = self.spec
        if row_scale != 1.0:
            n_rows = max(1, int(round(spec.n_rows * row_scale)))
            scaled = SyntheticSpec(
                n_rows=n_rows, n_features=spec.n_features,
                nnz_per_row=spec.nnz_per_row, noise=spec.noise,
                feature_skew=spec.feature_skew,
                separator_density=spec.separator_density, seed=spec.seed)
            if scaled.is_underdetermined != spec.is_underdetermined:
                raise ValueError(
                    f"row_scale={row_scale} changes {self.name}'s "
                    "conditioning (determined vs underdetermined); pick a "
                    "scale that preserves it")
            spec = scaled
        data = generate(spec, name=self.name)
        return SparseDataset(name=data.name, X=data.X, y=data.y,
                             scale_bytes=self.paper_size_gb * 1e9)


# Paper statistics, kept verbatim for Table I reporting.
PAPER_TABLE1: dict[str, tuple[int, int, float]] = {
    "avazu": (40_428_967, 1_000_000, 7.4),
    "url": (2_396_130, 3_231_961, 2.1),
    "kddb": (19_264_097, 29_890_095, 4.8),
    "kdd12": (149_639_105, 54_686_452, 21.0),
    "WX": (231_937_380, 51_121_518, 434.0),
}


def _card(name: str, n_rows: int, n_features: int, nnz_per_row: float,
          noise: float, seed: int) -> DatasetCard:
    paper_n, paper_d, paper_gb = PAPER_TABLE1[name]
    return DatasetCard(
        name=name,
        paper_instances=paper_n,
        paper_features=paper_d,
        paper_size_gb=paper_gb,
        spec=SyntheticSpec(n_rows=n_rows, n_features=n_features,
                           nnz_per_row=nnz_per_row, noise=noise, seed=seed),
    )


# Determined analogs: n >> d.  Underdetermined analogs: d > n.
# Feature counts keep the paper's rough ratios (url ~3.2x avazu,
# kddb ~30x, kdd12 ~55x, WX ~51x).
CATALOG: dict[str, DatasetCard] = {
    "avazu": _card("avazu", n_rows=40_000, n_features=1_000,
                   nnz_per_row=15.0, noise=0.05, seed=101),
    "url": _card("url", n_rows=2_400, n_features=3_200,
                 nnz_per_row=40.0, noise=0.02, seed=102),
    "kddb": _card("kddb", n_rows=19_000, n_features=30_000,
                  nnz_per_row=30.0, noise=0.02, seed=103),
    "kdd12": _card("kdd12", n_rows=150_000, n_features=55_000,
                   nnz_per_row=12.0, noise=0.05, seed=104),
    "WX": _card("WX", n_rows=230_000, n_features=51_000,
                nnz_per_row=12.0, noise=0.05, seed=105),
}


def dataset_names() -> list[str]:
    """Names of the five analog datasets, in Table I order."""
    return list(CATALOG)


def load(name: str, row_scale: float = 1.0) -> SparseDataset:
    """Build the analog dataset for ``name`` (deterministic).

    ``row_scale`` grows or shrinks the row count (model size unchanged);
    see :meth:`DatasetCard.build`.
    """
    try:
        card = CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; "
                       f"choose from {dataset_names()}") from None
    return card.build(row_scale=row_scale)


def avazu_like() -> SparseDataset:
    """Determined, low-dimensional CTR-style data (paper: avazu)."""
    return load("avazu")


def url_like() -> SparseDataset:
    """Underdetermined URL-reputation-style data (paper: url)."""
    return load("url")


def kddb_like() -> SparseDataset:
    """Underdetermined, high-dimensional data (paper: kddb)."""
    return load("kddb")


def wx_like() -> SparseDataset:
    """Tencent WX production analog: largest n and large d."""
    return load("WX")
