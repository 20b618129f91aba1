"""Background metrics sampler: a bounded time series of counters/gauges.

The end-of-run snapshot answers "how much work happened"; the sampler
answers "how did it *unfold*": a daemon thread wakes at a configurable
interval, copies the active session's counters and gauges, and appends
the sample to a bounded ring buffer — bounded memory no matter how long
the run, which a long ``repro serve`` session needs.  Sampling is read-only and lock-free: counter bumps
are single dict operations under the GIL, and the copy retries on the
rare resize race instead of taking a lock on the hot write path.

Samples export as JSONL (:func:`write_series_jsonl` /
:func:`read_series_jsonl` — one sample per line, meta header first) and
render via :func:`repro.telemetry.analysis.series_report`
(``repro stats --series``).  The *latest* sample is also what a
Prometheus scrape would expose
(:func:`repro.telemetry.exporters.prometheus_text`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

#: bump when the series JSONL layout changes incompatibly
SERIES_SCHEMA_VERSION = 1

#: default sampling interval (seconds)
DEFAULT_INTERVAL_S = 0.05

#: default ring capacity: 2 minutes of history at the default interval
DEFAULT_CAPACITY = 2400


def _copy_metrics(mapping: Mapping[str, float]) -> Dict[str, float]:
    """Copy a live metrics dict that another thread may be growing.

    ``dict(d)`` can raise ``RuntimeError`` if the dict resizes
    mid-iteration; retry a few times, then fall back to a keys-first
    copy (new keys appended after the key list was taken are simply
    missed — the next sample catches them).
    """
    for _ in range(4):
        try:
            return dict(mapping)
        except RuntimeError:
            continue
    return {k: mapping[k] for k in list(mapping.keys()) if k in mapping}


class MetricsSampler:
    """Samples a telemetry session's counters/gauges into a ring buffer.

    Parameters
    ----------
    tm:
        The (enabled) :class:`~repro.telemetry.core.Telemetry` session
        to sample.
    interval_s:
        Seconds between samples (default 50 ms).
    capacity:
        Ring-buffer bound; the oldest samples are evicted beyond it
        (evictions are counted in :attr:`dropped`, never silent).

    Use as a context manager, or :meth:`start`/:meth:`stop` explicitly;
    the first ``stop()`` takes one final sample so even sub-interval
    runs produce a series, and repeated stops (e.g. an explicit
    ``stop()`` followed by the context manager's ``__exit__``) are
    no-ops — one run, one final sample.  :meth:`start` re-arms the
    sampler for another run.
    """

    def __init__(
        self,
        tm,
        interval_s: float = DEFAULT_INTERVAL_S,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._tm = tm
        self.interval_s = interval_s
        self.capacity = capacity
        self._samples: deque = deque(maxlen=capacity)
        # Guards the ring + dropped counter: sample_now may be called
        # from the sampler thread, the event loop (``repro serve``
        # /stats), and stop() at once; deque.append alone is atomic but
        # the full-check + dropped increment + append is not.
        self._ring_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # True once stop() has taken this run's final sample; cleared by
        # start() so a restarted sampler gets a fresh final sample.
        self._stopped = False
        #: samples evicted from the full ring
        self.dropped = 0

    # -- sampling -------------------------------------------------------------

    def sample_now(self) -> Dict[str, Any]:
        """Take one sample immediately (also usable without a thread)."""
        metrics = self._tm.metrics
        counters = _copy_metrics(metrics.counters)
        gauges = _copy_metrics(metrics.gauges)
        with self._ring_lock:
            # timestamp under the lock: ring order is time order even
            # when threads race into sample_now
            sample = {
                "t_s": (time.monotonic_ns() - self._tm.epoch_ns) / 1e9,
                "counters": counters,
                "gauges": gauges,
            }
            if len(self._samples) == self.capacity:
                self.dropped += 1
            self._samples.append(sample)
        return sample

    def samples(self) -> List[Dict[str, Any]]:
        """The buffered samples, oldest first."""
        with self._ring_lock:
            return list(self._samples)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "MetricsSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stopped = False
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-metrics-sampler", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            self.sample_now()

    def stop(self) -> List[Dict[str, Any]]:
        """Stop the thread, take a final sample, return the series.

        Idempotent: only the first stop of a run appends the final
        sample; extra stops just return the buffered series (regression:
        every extra stop used to append another "final" sample, skewing
        tail-of-series rates).
        """
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join()
            self._thread = None
        if not self._stopped:
            self._stopped = True
            self.sample_now()
        return self.samples()

    def __enter__(self) -> "MetricsSampler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


# -- series JSONL -------------------------------------------------------------


def write_series_jsonl(
    samples: List[Dict[str, Any]],
    path: Union[str, Path],
    run_id: str = "",
    interval_s: Optional[float] = None,
    dropped: int = 0,
) -> Path:
    """Write a metrics time series as JSONL: meta header, one sample per
    line; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        meta = {
            "meta": {
                "schema": SERIES_SCHEMA_VERSION,
                "tool": "repro",
                "run_id": run_id,
                "interval_s": interval_s,
                "samples": len(samples),
                "dropped": dropped,
            }
        }
        f.write(json.dumps(meta, sort_keys=True))
        f.write("\n")
        for sample in samples:
            f.write(json.dumps(sample, sort_keys=True))
            f.write("\n")
    return path


def read_series_jsonl(
    path: Union[str, Path],
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load ``(meta, samples)`` from a series file.

    Blank lines are ignored; malformed or unrecognized lines are skipped
    so a truncated series still renders — but never silently: the count
    of skipped lines is surfaced as ``meta["skipped_lines"]`` (always
    present, 0 for a clean file) and reported by
    ``repro stats --series``.
    """
    meta: Dict[str, Any] = {}
    samples: List[Dict[str, Any]] = []
    skipped = 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(obj, dict) and "meta" in obj:
                meta = obj["meta"]
            elif isinstance(obj, dict) and "t_s" in obj:
                samples.append(obj)
            else:
                skipped += 1
    meta = dict(meta)
    meta["skipped_lines"] = skipped
    return meta, samples
