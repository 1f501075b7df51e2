"""Ray-Data-native spatial-join + tiling engine.

A brand-new engine (not a port) with the query and data-processing
capabilities of the reference ``andrewjoiner/biomass-processing-pipeline``
(see SURVEY.md), re-expressed Ray-Data-first:

- ``geo/``       pure-numpy spatial kernels: H3-style hex grid, real S2 cell
                 ids, WKB polygon codec, vectorized point-in-polygon, exact
                 grid-bucketed kNN.
- ``image/``     pure-numpy image codecs (PNG via zlib, raw, deterministic
                 lossy quantized codec standing in for JPEG) + dHash phash.
- ``sources/``   synthetic deterministic fixtures (tiles, counties) and
                 pruned parquet readers.
- ``stages/``    Ray Data stages, run as plain tasks: decode, cell
                 encode, PIP join, kNN stitch (broadcast and sharded),
                 zonal aggregation, clip zonal, mosaic, multimodal,
                 dedup family, text analysis, ANN, event windows,
                 table profiler, relational helpers.
- ``pipelines/`` end-to-end composed pipelines (flagship biomass zonal).
- ``state/``     checkpoint manifest + per-partition lineage for resume.

Nothing here calls ``ray.init``/``ray.shutdown`` — sessions are owned by
the caller (driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"
