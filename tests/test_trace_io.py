"""Trace I/O: CSV round trips, gzip, bundle persistence, anonymisation."""

import numpy as np
import pytest

from repro.trace.hashing import IdHasher, stable_hash
from repro.trace.io import (
    load_bundle,
    read_anonymised_npz,
    read_table_csv,
    read_table_npz,
    save_bundle,
    write_table_csv,
    write_table_npz,
)
from repro.trace.tables import FunctionTable, PodTable, TraceBundle

from tests.test_trace_tables import make_functions, make_pods, make_requests


class TestHashing:
    def test_stable_across_calls(self):
        assert stable_hash("abc") == stable_hash("abc")

    def test_salt_changes_digest(self):
        assert stable_hash("abc", salt="s1") != stable_hash("abc", salt="s2")

    def test_chars_bounds(self):
        assert len(stable_hash("x", chars=8)) == 8
        with pytest.raises(ValueError):
            stable_hash("x", chars=0)

    def test_hasher_namespaces_do_not_collide(self):
        hasher = IdHasher()
        assert hasher.hash_one("pod_id", 1) != hasher.hash_one("user", 1)

    def test_hash_array_matches_scalar(self):
        hasher = IdHasher()
        values = np.array([5, 5, 9], dtype=np.int64)
        digests = hasher.hash_array("pod_id", values)
        assert digests[0] == digests[1] == hasher.hash_one("pod_id", 5)
        assert digests[2] == hasher.hash_one("pod_id", 9)

    def test_clear_resets_memo(self):
        hasher = IdHasher()
        first = hasher.hash_one("ns", 1)
        hasher.clear()
        assert hasher.hash_one("ns", 1) == first  # still deterministic


class TestCsvRoundTrip:
    def test_plain_round_trip(self, tmp_path):
        pods = make_pods()
        path = write_table_csv(pods, tmp_path / "pods.csv")
        loaded = read_table_csv(PodTable, path)
        assert len(loaded) == len(pods)
        assert (loaded["cold_start_us"] == pods["cold_start_us"]).all()
        assert (loaded["pod_id"] == pods["pod_id"]).all()

    def test_gzip_round_trip(self, tmp_path):
        pods = make_pods()
        path = write_table_csv(pods, tmp_path / "pods.csv.gz")
        loaded = read_table_csv(PodTable, path)
        assert len(loaded) == len(pods)

    def test_string_columns_round_trip(self, tmp_path):
        functions = make_functions()
        path = write_table_csv(functions, tmp_path / "fn.csv")
        loaded = read_table_csv(FunctionTable, path)
        assert list(loaded["runtime"]) == list(functions["runtime"])

    def test_empty_table_round_trip(self, tmp_path):
        path = write_table_csv(PodTable.empty(), tmp_path / "empty.csv")
        assert len(read_table_csv(PodTable, path)) == 0

    def test_hashed_export_changes_ids(self, tmp_path):
        pods = make_pods()
        path = tmp_path / "anon.csv"
        write_table_csv(pods, path, hasher=IdHasher())
        text = path.read_text()
        # Raw integer pod ids (0..3) must not appear as bare id fields.
        header, first_row = text.splitlines()[:2]
        pod_idx = header.split(",").index("pod_id")
        assert len(first_row.split(",")[pod_idx]) == 16  # hex digest


class TestNpzRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        pods = make_pods()
        path = write_table_npz(pods, tmp_path / "pods.npz")
        loaded = read_table_npz(PodTable, path)
        assert len(loaded) == len(pods)
        for name in pods.columns:
            assert (loaded[name] == pods[name]).all()
            assert loaded[name].dtype == pods[name].dtype

    def test_string_columns_round_trip(self, tmp_path):
        functions = make_functions()
        path = write_table_npz(functions, tmp_path / "functions.npz")
        loaded = read_table_npz(FunctionTable, path)
        assert list(loaded["runtime"]) == list(functions["runtime"])

    def test_empty_table_round_trip(self, tmp_path):
        path = write_table_npz(PodTable.empty(), tmp_path / "empty.npz")
        assert len(read_table_npz(PodTable, path)) == 0

    def test_hashed_export_reads_as_strings(self, tmp_path):
        pods = make_pods()
        path = write_table_npz(pods, tmp_path / "anon.npz", hasher=IdHasher())
        raw = read_anonymised_npz(PodTable, path)
        assert raw["pod_id"].dtype.kind == "U"
        assert (raw["cold_start_us"] == pods["cold_start_us"]).all()
        with pytest.raises(Exception):
            read_table_npz(PodTable, path)


class TestBundlePersistence:
    def _bundle(self):
        return TraceBundle(
            region="RX",
            requests=make_requests(),
            pods=make_pods(),
            functions=make_functions(),
            meta={"seed": 1, "days": 1},
        )

    def test_save_load_round_trip(self, tmp_path):
        directory = save_bundle(self._bundle(), tmp_path / "bundle", compress=False)
        loaded = load_bundle(directory)
        assert loaded.region == "RX"
        assert loaded.meta["seed"] == 1
        assert len(loaded.requests) == 6
        assert len(loaded.pods) == 4

    def test_save_compressed(self, tmp_path):
        directory = save_bundle(self._bundle(), tmp_path / "bundle")
        assert (directory / "pods.csv.gz").exists()
        assert len(load_bundle(directory).pods) == 4

    def test_npz_bundle_round_trip(self, tmp_path):
        directory = save_bundle(self._bundle(), tmp_path / "bin", fmt="npz")
        assert (directory / "requests.npz").exists()
        assert not (directory / "requests.csv.gz").exists()
        loaded = load_bundle(directory)
        assert loaded.region == "RX"
        assert len(loaded.requests) == 6
        assert (loaded.pods["cold_start_us"] == self._bundle().pods["cold_start_us"]).all()

    def test_reexport_in_other_format_wins_over_stale_files(self, tmp_path):
        directory = save_bundle(self._bundle(), tmp_path / "b", fmt="npz")
        # re-export as CSV into the same directory; the stale .npz remains
        smaller = TraceBundle(
            region="RX",
            requests=make_requests().head(2),
            pods=make_pods().head(1),
            functions=make_functions(),
            meta={"seed": 2, "days": 1},
        )
        save_bundle(smaller, directory, fmt="csv")
        loaded = load_bundle(directory)
        assert loaded.meta["seed"] == 2
        assert len(loaded.requests) == 2  # CSV (declared) wins, not stale npz

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            save_bundle(self._bundle(), tmp_path / "x", fmt="parquet")

    def test_anonymised_bundle_cannot_reload(self, tmp_path):
        directory = save_bundle(
            self._bundle(), tmp_path / "anon", compress=False, hasher=IdHasher()
        )
        with pytest.raises(ValueError, match="one-way"):
            load_bundle(directory)
