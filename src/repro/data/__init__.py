"""Multi-source heterogeneous data model: the substrate CRH operates on.

Public surface:

* :mod:`repro.data.schema` — typed property / dataset schemas;
* :mod:`repro.data.table` — dense ``(K, N)`` observation matrices, truth
  tables, and the :class:`DatasetBuilder`;
* :mod:`repro.data.claims_matrix` — sparse CSR-by-object claim storage
  (:class:`ClaimsMatrix`) and the canonical :class:`ClaimView` the
  execution kernels consume;
* :mod:`repro.data.records` — the flat ``(eID, v, sID)`` record view;
* :mod:`repro.data.io` — CSV/JSON persistence;
* :mod:`repro.data.validation` — structural integrity checks.
"""

from .claims_matrix import (
    ClaimsMatrix,
    ClaimView,
    PropertyClaims,
    claims_from_arrays,
)
from .encoding import MISSING_CODE, CategoricalCodec
from .profile import (
    DatasetProfile,
    PropertyProfile,
    SourceProfile,
    profile_dataset,
)
from .records import (
    EntryId,
    Record,
    count_observations_per_source,
    dataset_to_records,
    encoded_record_arrays,
    records_to_dataset,
)
from .schema import (
    DatasetSchema,
    PropertyKind,
    PropertySchema,
    categorical,
    continuous,
    text,
)
from .table import (
    DatasetBuilder,
    MultiSourceDataset,
    PropertyObservations,
    TruthTable,
    iter_entries,
)
from .validation import (
    ValidationError,
    ValidationReport,
    validate_dataset,
    validate_truth_alignment,
)

__all__ = [
    "MISSING_CODE",
    "CategoricalCodec",
    "ClaimView",
    "ClaimsMatrix",
    "DatasetBuilder",
    "DatasetProfile",
    "DatasetSchema",
    "EntryId",
    "MultiSourceDataset",
    "PropertyClaims",
    "PropertyKind",
    "PropertyObservations",
    "PropertyProfile",
    "PropertySchema",
    "Record",
    "SourceProfile",
    "TruthTable",
    "ValidationError",
    "ValidationReport",
    "categorical",
    "continuous",
    "text",
    "claims_from_arrays",
    "count_observations_per_source",
    "dataset_to_records",
    "encoded_record_arrays",
    "iter_entries",
    "profile_dataset",
    "records_to_dataset",
    "validate_dataset",
    "validate_truth_alignment",
]
