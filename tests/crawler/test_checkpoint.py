"""Resumable crawl checkpoints."""

import builtins
import hashlib
import json
import os

import pytest

import repro.crawler.checkpoint as checkpoint_module
from repro import constants
from repro.crawler.achievements import crawl_achievements
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.details import crawl_details
from repro.crawler.profiles import sweep_profiles
from repro.crawler.runner import run_full_crawl
from repro.crawler.session import CrawlSession
from repro.crawler.storefront import crawl_storefront
from repro.crawler.throttle import PolitePacer
from repro.steamapi.service import SteamApiService
from repro.steamapi.transport import InProcessTransport
from repro.store.io import save_dataset


class TestCheckpoint:
    def test_fresh_when_absent(self, tmp_path):
        checkpoint = CrawlCheckpoint.load(tmp_path / "none.json")
        assert checkpoint.profile_cursor == 0
        assert checkpoint.detail_cursor == 0

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "state.json"
        checkpoint = CrawlCheckpoint.load(path)
        checkpoint.profile_cursor = 12_300
        checkpoint.detail_cursor = 456
        checkpoint.storefront_cursor = 78
        checkpoint.achievements_cursor = 9
        checkpoint.extra["note"] = "phase 2"
        checkpoint.save()

        loaded = CrawlCheckpoint.load(path)
        assert loaded.profile_cursor == 12_300
        assert loaded.detail_cursor == 456
        assert loaded.storefront_cursor == 78
        assert loaded.achievements_cursor == 9
        assert loaded.extra == {"note": "phase 2"}

    def test_save_without_path_is_noop(self):
        CrawlCheckpoint().save()  # must not raise

    def test_atomic_overwrite(self, tmp_path):
        path = tmp_path / "state.json"
        first = CrawlCheckpoint.load(path)
        first.profile_cursor = 1
        first.save()
        second = CrawlCheckpoint.load(path)
        second.profile_cursor = 2
        second.save()
        assert CrawlCheckpoint.load(path).profile_cursor == 2
        assert not (tmp_path / "state.tmp").exists()

    def test_save_leaves_no_temp_file(self, tmp_path):
        """save() is atomic: after it returns, only the final file exists."""
        path = tmp_path / "state.json"
        checkpoint = CrawlCheckpoint.load(path)
        for cursor in range(5):
            checkpoint.profile_cursor = cursor
            checkpoint.save()
            assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
            assert json.loads(path.read_text())  # always complete JSON

    def test_sibling_checkpoints_sharing_a_stem_do_not_collide(
        self, tmp_path, monkeypatch
    ):
        """Regression: the temp file used to be ``path.with_suffix('.tmp')``,
        so ``state.json`` and ``state.bak`` (same stem, different
        extension) both staged through ``state.tmp`` and could clobber
        each other mid-write.  The temp name must embed the full file
        name."""
        import os

        staged: list[str] = []
        real_replace = os.replace

        def spy_replace(src, dst):
            staged.append(os.path.basename(str(src)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy_replace)

        a = CrawlCheckpoint(path=tmp_path / "state.json")
        b = CrawlCheckpoint(path=tmp_path / "state.bak")
        a.profile_cursor = 1
        b.profile_cursor = 2
        a.save()
        b.save()
        assert len(set(staged)) == 2, staged
        assert CrawlCheckpoint.load(tmp_path / "state.json").profile_cursor == 1
        assert CrawlCheckpoint.load(tmp_path / "state.bak").profile_cursor == 2


class TestCrashRecovery:
    def test_truncated_file_falls_back_fresh(self, tmp_path):
        """A crash mid-write (simulated: partial JSON) must not brick
        the crawl — load warns and starts fresh."""
        path = tmp_path / "state.json"
        good = CrawlCheckpoint.load(path)
        good.detail_cursor = 999
        good.save()
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # torn write

        with pytest.warns(RuntimeWarning, match="corrupt"):
            recovered = CrawlCheckpoint.load(path)
        assert recovered.detail_cursor == 0
        assert recovered.path == path
        recovered.save()  # and it can checkpoint again afterwards
        assert CrawlCheckpoint.load(path).detail_cursor == 0

    def test_garbage_file_falls_back_fresh(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_bytes(b"\x00\xff not json at all")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            checkpoint = CrawlCheckpoint.load(path)
        assert checkpoint.profile_cursor == 0

    def test_non_object_json_falls_back_fresh(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("[1, 2, 3]")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            checkpoint = CrawlCheckpoint.load(path)
        assert checkpoint.extra == {}


class TestPhaseState:
    def test_stash_roundtrip(self, tmp_path):
        path = tmp_path / "state.json"
        checkpoint = CrawlCheckpoint.load(path)
        checkpoint.stash("details", {"edge_a": [1, 2], "n_private": 3})
        checkpoint.mark_done("profiles")
        checkpoint.save()

        loaded = CrawlCheckpoint.load(path)
        assert loaded.unstash("details") == {
            "edge_a": [1, 2],
            "n_private": 3,
        }
        assert loaded.unstash("storefront") is None
        assert loaded.is_done("profiles")
        assert not loaded.is_done("details")

    def test_failure_log(self, tmp_path):
        path = tmp_path / "state.json"
        checkpoint = CrawlCheckpoint.load(path)
        checkpoint.record_failure("details", 76561197960265729)
        checkpoint.record_failure("details", 76561197960265731)
        checkpoint.record_failure("storefront", 440)
        checkpoint.save()

        loaded = CrawlCheckpoint.load(path)
        assert loaded.failures("details") == [
            76561197960265729,
            76561197960265731,
        ]
        assert loaded.failures("storefront") == [440]
        assert loaded.failures("achievements") == []
        assert loaded.n_failures == 3


@pytest.fixture(scope="module")
def service(small_world):
    return SteamApiService.from_world(small_world)


def _journal(path):
    return path.parent / (path.name + ".journal")


def _committed(path):
    return json.loads(path.read_text())["journal_bytes"]


def _sha(dataset, path):
    return hashlib.sha256(save_dataset(dataset, path).read_bytes()).hexdigest()


class _CountingHandle:
    """A file handle that tallies the bytes written through it."""

    def __init__(self, handle, tally):
        self._handle = handle
        self._tally = tally

    def write(self, data):
        self._tally.append(len(data))
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._handle.__exit__(*exc)


class TestJournalCost:
    def test_bytes_written_are_linear_in_the_harvest(
        self, service, tmp_path, monkeypatch
    ):
        """Each save writes only the rows harvested since the previous
        one (plus the small cursor file), so the bytes all saves write
        add up to about the journal's final size.  Re-serialising the
        whole harvest at every save grows with the square of the crawl
        and fails this bound."""
        written: list[int] = []

        def counting_open(file, mode="r", *args, **kwargs):
            handle = builtins.open(file, mode, *args, **kwargs)
            if any(flag in mode for flag in "wa+"):
                return _CountingHandle(handle, written)
            return handle

        saves: list[int] = []
        real_save = CrawlCheckpoint.save

        def counted_save(self):
            saves.append(1)
            return real_save(self)

        monkeypatch.setattr(
            checkpoint_module, "open", counting_open, raising=False
        )
        monkeypatch.setattr(CrawlCheckpoint, "save", counted_save)
        path = tmp_path / "crawl.json"
        checkpoint = CrawlCheckpoint.load(path)
        session = CrawlSession(
            transport=InProcessTransport(service),
            pacer=PolitePacer(1e9, sleeper=lambda s: None),
        )
        sweep = sweep_profiles(
            session, checkpoint=checkpoint, checkpoint_every=20
        )
        catalog = crawl_storefront(
            session, checkpoint=checkpoint, checkpoint_every=50
        )
        crawl_details(
            session,
            sweep.offsets + constants.STEAMID_BASE,
            checkpoint=checkpoint,
            checkpoint_every=200,
        )
        crawl_achievements(
            session,
            [item.appid for item in catalog.details],
            checkpoint=checkpoint,
            checkpoint_every=50,
        )
        # Enough saves for a writer whose cost grows with the square of
        # the harvest to blow the bound.
        assert len(saves) > 40
        journal = (
            _journal(path).stat().st_size if _journal(path).exists() else 0
        )
        cursor = path.stat().st_size
        assert sum(written) <= 2 * journal + cursor, (sum(written), journal)
        # And the journal replays to the same harvest.
        loaded = CrawlCheckpoint.load(path)
        for phase in ("profiles", "storefront", "details", "achievements"):
            assert loaded.is_done(phase)
            assert loaded.unstash(phase) == checkpoint.unstash(phase)


class TestTornCommit:
    def test_crash_between_append_and_commit_resumes_byte_identical(
        self, service, tmp_path, monkeypatch
    ):
        """The process dies after a save appended its journal record but
        before the cursor file's rename (simulated: ``os.replace`` raises
        on the second mid-details save).  The appended bytes are past the
        committed length, so resume ignores them and the final dataset
        is byte-identical to a clean crawl."""
        clean = run_full_crawl(InProcessTransport(service))
        clean_sha = _sha(clean.dataset, tmp_path / "clean.npz")

        path = tmp_path / "crawl.json"
        real_replace = os.replace
        detail_saves = []

        def dying_replace(src, dst):
            with open(src, encoding="utf-8") as handle:
                staged = json.load(handle)
            if staged["detail_cursor"] > 0 and not staged["extra"].get(
                "done:details"
            ):
                detail_saves.append(staged["detail_cursor"])
                if len(detail_saves) == 2:
                    raise OSError("simulated crash before the commit")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError, match="simulated crash"):
            run_full_crawl(
                InProcessTransport(service),
                checkpoint=CrawlCheckpoint.load(path),
            )
        monkeypatch.setattr(os, "replace", real_replace)

        # The torn record sits past the committed length.
        assert _journal(path).stat().st_size > _committed(path)
        aborted = CrawlCheckpoint.load(path)
        assert aborted.detail_cursor == detail_saves[0]
        assert not aborted.is_done("details")

        result = run_full_crawl(
            InProcessTransport(service),
            checkpoint=CrawlCheckpoint.load(path),
        )
        assert _sha(result.dataset, tmp_path / "resumed.npz") == clean_sha
        # The resumed saves truncated the torn tail: the journal is
        # exactly its committed length again.
        assert _journal(path).stat().st_size == _committed(path)

    def test_garbage_past_committed_length_is_ignored_then_overwritten(
        self, tmp_path
    ):
        path = tmp_path / "state.json"
        checkpoint = CrawlCheckpoint.load(path)
        rows = checkpoint.resume("storefront", ("entries",))["entries"]
        rows.extend([[10, {"a": 1}], [20, {"b": 2}]])
        checkpoint.advance("storefront", 2)
        committed = _committed(path)
        with open(_journal(path), "ab") as handle:
            handle.write(b'{"phase": "storefront", "torn')

        loaded = CrawlCheckpoint.load(path)
        assert loaded.unstash("storefront") == {
            "entries": [[10, {"a": 1}], [20, {"b": 2}]]
        }
        assert loaded.storefront_cursor == 2
        more = loaded.resume("storefront", ("entries",))["entries"]
        more.append([30, {"c": 3}])
        loaded.advance("storefront", 3, done=True)

        data = _journal(path).read_bytes()
        assert b"torn" not in data
        assert len(data) == _committed(path) > committed
        again = CrawlCheckpoint.load(path)
        assert again.unstash("storefront")["entries"] == [
            [10, {"a": 1}],
            [20, {"b": 2}],
            [30, {"c": 3}],
        ]
        assert again.is_done("storefront")

    @pytest.mark.parametrize("damage", ["missing", "short"])
    def test_missing_or_short_journal_falls_back_fresh(
        self, tmp_path, damage
    ):
        path = tmp_path / "state.json"
        checkpoint = CrawlCheckpoint.load(path)
        checkpoint.resume("details", ("edge_a",))["edge_a"].extend([1, 2, 3])
        checkpoint.advance("details", 3)
        journal = _journal(path)
        if damage == "missing":
            journal.unlink()
        else:
            journal.write_bytes(journal.read_bytes()[:-5])

        with pytest.warns(RuntimeWarning, match="corrupt"):
            recovered = CrawlCheckpoint.load(path)
        assert recovered.detail_cursor == 0
        assert recovered.unstash("details") is None
        # The fresh checkpoint journals from zero again.
        recovered.resume("details", ("edge_a",))["edge_a"].append(7)
        recovered.advance("details", 1)
        assert CrawlCheckpoint.load(path).unstash("details") == {
            "edge_a": [7]
        }


class TestJournalFormat:
    def test_unchanged_phase_writes_no_journal(self, tmp_path):
        path = tmp_path / "state.json"
        checkpoint = CrawlCheckpoint.load(path)
        checkpoint.profile_cursor = 5
        checkpoint.save()
        assert not _journal(path).exists()
        assert _committed(path) == 0

    def test_replaced_column_is_journaled_whole(self, tmp_path):
        path = tmp_path / "state.json"
        checkpoint = CrawlCheckpoint.load(path)
        checkpoint.stash("details", {"edge_a": [1, 2, 3], "n_private": 0})
        checkpoint.save()
        checkpoint.stash("details", {"edge_a": [9], "n_private": 4})
        checkpoint.save()
        assert CrawlCheckpoint.load(path).unstash("details") == {
            "edge_a": [9],
            "n_private": 4,
        }

    def test_cursor_without_harvest_warns(self, tmp_path):
        checkpoint = CrawlCheckpoint(path=tmp_path / "state.json")
        checkpoint.detail_cursor = 10
        with pytest.warns(RuntimeWarning, match="no stashed harvest"):
            state = checkpoint.resume("details", ("edge_a",), n_private=0)
        assert state == {"edge_a": [], "n_private": 0}

    def test_inline_stash_of_older_checkpoints_moves_to_the_journal(
        self, tmp_path
    ):
        """Checkpoints written before the journal kept each harvest
        inline in ``extra``; loading one keeps the harvest."""
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {
                    "detail_cursor": 2,
                    "extra": {
                        "stash:details": {"edge_a": [5, 6], "n_private": 1},
                        "done:profiles": True,
                    },
                }
            )
        )
        checkpoint = CrawlCheckpoint.load(path)
        assert checkpoint.unstash("details") == {
            "edge_a": [5, 6],
            "n_private": 1,
        }
        assert checkpoint.extra == {"done:profiles": True}
        checkpoint.resume("details", ())["edge_a"].append(7)
        checkpoint.advance("details", 3, n_private=1)
        loaded = CrawlCheckpoint.load(path)
        assert loaded.unstash("details") == {
            "edge_a": [5, 6, 7],
            "n_private": 1,
        }
        assert loaded.detail_cursor == 3
        assert loaded.is_done("profiles")
