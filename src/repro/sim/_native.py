"""Compiled gate-evaluation helper for the vector backend.

The lane-vectorized backend keeps all simulation state in NumPy
arrays (``repro.sim.vector``), but the per-level gate transform —
candidate merge, per-pin value cursors, causing-pin window, arc-delay
max, preemption and value pruning — is a chain of many small array
ops whose per-op dispatch cost dominates at realistic lane counts.
This module builds that one transform as a tiny C routine operating
directly on the backend's global ``(slot, lane, event)`` arrays, the
same way NumPy's own ufunc loops do: one call per topological level
advances every gate and every lane.

The C loop is a line-for-line mirror of
:meth:`repro.sim.kernel.CompiledSimulator.run_cycle`'s candidate
loop (same double-precision operations in the same order: the only
float arithmetic is ``when - eps`` / ``when + eps`` / ``when +
delay``, compiled with ``-ffp-contract=off`` so no fused ops can
change a result), so it is bit-exact against the event and compiled
oracles by construction.

:func:`load` builds the helper once per process with the system C
compiler into a private per-user cache (``$XDG_CACHE_HOME/repro`` or
``~/.cache/repro``, mode 0700), keyed by source, compiler identity,
flags and platform, and checks its recorded sha256 before every
``dlopen`` (DESIGN.md §16).  When it cannot, :func:`status` records
why and the default backend falls back to ``compiled``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

_SOURCE = r"""
#include <stdint.h>

#define INF (1.0 / 0.0)
#define MAXK 16

/* Evaluate one level-group of k-input gates across all lanes.
 *
 * Global waveform arrays are C-contiguous (n_slots, n_lanes, width):
 * float64 times and 0/1 int8 values (int64 counts/inits per row);
 * `ins` holds kmax slot ids per gate (missing pins point at the
 * dummy slot: count 0, initial 0).  Gates are visited in schedule
 * order, lanes inner.  Returns 0 on success; on event-cap overflow
 * returns 1 with err_gate/err_count set for the first overflowing
 * gate in schedule order (first overflowing lane).
 */
int eval_gates(
    int64_t n_gates, int64_t n_lanes, int64_t kmax, int64_t width,
    const int64_t *ins,       /* (n_gates, kmax) */
    const int64_t *out_slots, /* (n_gates,) */
    const int64_t *single,    /* (n_gates,) 1 = true 1-input gate */
    const double *delays,     /* (n_gates, kmax, 2) */
    const int64_t *tables,    /* (n_gates, 1 << kmax) */
    double *times,            /* (n_slots, n_lanes, width) */
    int8_t *values,           /* (n_slots, n_lanes, width) */
    int64_t *counts,          /* (n_slots, n_lanes) */
    int64_t *inits,           /* (n_slots, n_lanes) */
    int64_t cap, double eps,
    int64_t *err_gate, int64_t *err_count)
{
    int64_t tsize = (int64_t)1 << kmax;
    for (int64_t g = 0; g < n_gates; g++) {
        const int64_t *gin = ins + g * kmax;
        const double *gdel = delays + g * kmax * 2;
        const int64_t *tab = tables + g * tsize;
        int64_t oslot = out_slots[g];
        for (int64_t lane = 0; lane < n_lanes; lane++) {
            const double *tin[MAXK];
            const int8_t *vin[MAXK];
            int64_t len[MAXK], cur[MAXK], cc[MAXK], val[MAXK];
            int64_t mask = 0, total = 0;
            for (int64_t p = 0; p < kmax; p++) {
                int64_t row = gin[p] * n_lanes + lane;
                tin[p] = times + row * width;
                vin[p] = values + row * width;
                len[p] = counts[row];
                cur[p] = 0;
                cc[p] = 0;
                val[p] = inits[row];
                mask |= val[p] << p;
                total += len[p];
            }
            int64_t out_init = tab[mask];
            int64_t orow = oslot * n_lanes + lane;
            double *tout = times + orow * width;
            int8_t *vout = values + orow * width;
            int64_t old_count = counts[orow];
            int64_t ne = 0;       /* events written (pre-prune) */
            int64_t n_cand = 0;   /* deduped candidate count */
            if (total > 0) {
                for (;;) {
                    /* next distinct candidate time */
                    double when = INF;
                    int any = 0;
                    for (int64_t p = 0; p < kmax; p++) {
                        if (cur[p] < len[p] && tin[p][cur[p]] < when) {
                            when = tin[p][cur[p]];
                            any = 1;
                        }
                    }
                    if (!any)
                        break;
                    n_cand++;
                    /* advance value cursors through `when` (mirrors
                     * the kernel's inclusive value_at) */
                    for (int64_t p = 0; p < kmax; p++) {
                        int64_t c = cur[p], e = len[p];
                        if (c < e && tin[p][c] <= when) {
                            while (c < e && tin[p][c] <= when)
                                c++;
                            val[p] = vin[p][c - 1];
                            cur[p] = c;
                        }
                    }
                    mask = 0;
                    for (int64_t p = 0; p < kmax; p++)
                        mask |= val[p] << p;
                    int64_t new_value = tab[mask];
                    double delay;
                    if (single[g]) {
                        /* kernel 1-input fast path: the single pin
                         * always causes, no eps-window test */
                        delay = gdel[new_value];
                    } else {
                        /* causing pins: any transition inside
                         * (when - eps, when + eps) */
                        delay = 0.0;
                        double lo = when - eps;
                        double hi = when + eps;
                        for (int64_t p = 0; p < kmax; p++) {
                            int64_t e = len[p];
                            if (!e)
                                continue;
                            int64_t c = cc[p];
                            while (c < e && tin[p][c] <= lo)
                                c++;
                            cc[p] = c;
                            if (c < e && tin[p][c] < hi) {
                                double arc = gdel[p * 2 + new_value];
                                if (arc > delay)
                                    delay = arc;
                            }
                        }
                    }
                    double out_time = when + delay;
                    while (ne > 0 && tout[ne - 1] >= out_time)
                        ne--;
                    tout[ne] = out_time;
                    vout[ne] = new_value;
                    ne++;
                }
                if (n_cand > cap) {
                    *err_gate = g;
                    *err_count = n_cand;
                    return 1;
                }
            }
            /* prune runs of unchanged value (in place) */
            int64_t running = out_init, kept = 0;
            for (int64_t j = 0; j < ne; j++) {
                if (vout[j] != running) {
                    tout[kept] = tout[j];
                    vout[kept] = vout[j];
                    running = vout[j];
                    kept++;
                }
            }
            /* restore the inf padding over any stale tail */
            int64_t stale = old_count > ne ? old_count : ne;
            for (int64_t j = kept; j < stale; j++)
                tout[j] = INF;
            counts[orow] = kept;
            inits[orow] = out_init;
        }
    }
    return 0;
}

/* One stage of cloud-latch transforms across all lanes: the kernel's
 * `_latch_transform` loop per (latch, lane).  Source and destination
 * slots are distinct by construction (each latch owns its output
 * slot), so writing the output row never clobbers unread input.
 * `held` is (n_rows, n_lanes): the latch's carried state, which is
 * both the prune baseline and the output initial value.
 */
int eval_latches(
    int64_t n_rows, int64_t n_lanes, int64_t width,
    const int64_t *src_slots, const int64_t *dst_slots,
    const int64_t *held,
    double t_open, double t_close, double d_q, double open_edge,
    double *times, int8_t *values, int64_t *counts, int64_t *inits)
{
    for (int64_t r = 0; r < n_rows; r++) {
        for (int64_t lane = 0; lane < n_lanes; lane++) {
            int64_t srow = src_slots[r] * n_lanes + lane;
            int64_t drow = dst_slots[r] * n_lanes + lane;
            const double *tin = times + srow * width;
            const int8_t *vin = values + srow * width;
            int64_t len = counts[srow];
            int64_t h = held[r * n_lanes + lane];
            double *tout = times + drow * width;
            int8_t *vout = values + drow * width;
            int64_t old_count = counts[drow];
            /* bisect_right(times, t_open): the opening value */
            int64_t idx = 0;
            while (idx < len && tin[idx] <= t_open)
                idx++;
            int64_t opening = idx ? vin[idx - 1] : inits[srow];
            int64_t ne = 0;
            if (opening != h) {
                tout[ne] = open_edge;
                vout[ne] = opening;
                ne++;
            }
            /* transparent window: t_open < when <= t_close */
            for (int64_t j = idx; j < len && tin[j] <= t_close; j++) {
                double out_time = tin[j] + d_q;
                while (ne > 0 && tout[ne - 1] >= out_time)
                    ne--;
                tout[ne] = out_time;
                vout[ne] = vin[j];
                ne++;
            }
            /* prune runs of unchanged value vs the held value */
            int64_t running = h, kept = 0;
            for (int64_t j = 0; j < ne; j++) {
                if (vout[j] != running) {
                    tout[kept] = tout[j];
                    vout[kept] = vout[j];
                    running = vout[j];
                    kept++;
                }
            }
            int64_t stale = old_count > ne ? old_count : ne;
            for (int64_t j = kept; j < stale; j++)
                tout[j] = INF;
            counts[drow] = kept;
            inits[drow] = h;
        }
    }
    return 0;
}
"""

#: Compiler flags (part of the cache key).
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


class _Unavailable(Exception):
    """The helper cannot be used; the message is the recorded reason."""


@dataclass(frozen=True)
class Status:
    """The outcome of this process's one helper load: the loaded
    object, or why there is none, plus what happened on the way (a
    rejected cache dir, a rebuilt digest mismatch)."""

    path: Optional[str]
    reason: Optional[str]
    notes: Tuple[str, ...] = ()


_lib: Optional[ctypes.CDLL] = None
_status: Optional[Status] = None


def status() -> Optional[Status]:
    """How :func:`load` went, or ``None`` before its first call."""
    return _status


def _compiler_identity() -> Tuple[str, str]:
    """The C compiler's path and its ``--version`` text."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise _Unavailable("no C compiler on PATH")
    try:
        proc = subprocess.run(
            [compiler, "--version"],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable(f"{compiler} --version failed: {exc}") from exc
    return compiler, proc.stdout.strip()


def cache_key(
    compiler: str, version: str, flags: Sequence[str] = FLAGS
) -> str:
    """Key of one build: source, compiler identity, flags, platform."""
    text = "\0".join(
        [_SOURCE, compiler, version, " ".join(flags), platform.platform()]
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dir_problem(path: str) -> Optional[str]:
    """Why ``path`` is not a private cache directory (``None`` if it is)."""
    info = os.lstat(path)
    if stat.S_ISLNK(info.st_mode):
        return "a symlink"
    if not stat.S_ISDIR(info.st_mode):
        return "not a directory"
    if info.st_uid != os.geteuid():
        return "not owned by this user"
    if info.st_mode & stat.S_IWOTH:
        return "world-writable"
    if info.st_mode & stat.S_IWGRP:
        return "group-writable"
    return None


def private_cache_dir() -> str:
    """The per-user helper cache, created with mode 0700."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG spec ignores relative paths
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        problem = _dir_problem(path)
    except OSError as exc:
        problem = exc.strerror or str(exc)
    if problem is not None:
        raise _Unavailable(f"cache dir rejected: {problem}")
    return path


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _record_path(directory: str, key: str) -> str:
    return os.path.join(directory, f"veval-{key[:16]}.sha256")


def _object_path(directory: str, key: str, digest: str) -> str:
    return os.path.join(directory, f"veval-{key[:16]}-{digest[:16]}.so")


def _verified(directory: str, key: str) -> Optional[str]:
    """The cached helper if its sha256 matches the recorded digest.

    The object's file name carries its digest, so concurrent builds
    never overwrite each other's object with different bytes: the
    record names one complete object, whichever build wrote it last.
    """
    try:
        with open(_record_path(directory, key), encoding="ascii") as fh:
            digest = fh.read().strip()
        path = _object_path(directory, key, digest)
        if _sha256(path) == digest:
            return path
    except (OSError, ValueError):
        pass
    return None


def _build(directory: str, key: str, compiler: str) -> None:
    """Compile into ``directory`` and record the object's digest."""
    workdir = tempfile.mkdtemp(prefix=".build-", dir=directory)
    try:
        with open(os.path.join(workdir, "veval.c"), "w") as fh:
            fh.write(_SOURCE)
        try:
            proc = subprocess.run(
                [compiler, *FLAGS, "veval.c", "-o", "veval.so"],
                cwd=workdir,
                capture_output=True,
                text=True,
                timeout=300,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise _Unavailable(f"compile failed: {exc}") from exc
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            first = lines[0] if lines else f"exit status {proc.returncode}"
            raise _Unavailable(f"compile failed: {first}")
        obj = os.path.join(workdir, "veval.so")
        digest = _sha256(obj)
        os.replace(obj, _object_path(directory, key, digest))
        record = os.path.join(workdir, "digest")
        with open(record, "w", encoding="ascii") as fh:
            fh.write(digest)
        os.replace(record, _record_path(directory, key))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _helper_path(
    directory: str, key: str, compiler: str, notes: List[str]
) -> str:
    """A verified helper in ``directory``, built (or rebuilt) if needed."""
    path = _verified(directory, key)
    if path is None:
        if os.path.exists(_record_path(directory, key)):
            notes.append("digest mismatch, rebuilt")
        _build(directory, key, compiler)
        path = _verified(directory, key)
        if path is None:
            raise _Unavailable("digest mismatch after rebuild")
    return path


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    fn = lib.eval_gates
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 9 + [
        ctypes.c_int64,
        ctypes.c_double,
        ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    fl = lib.eval_latches
    fl.restype = ctypes.c_int
    fl.argtypes = (
        [ctypes.c_int64] * 3
        + [ctypes.c_void_p] * 3
        + [ctypes.c_double] * 4
        + [ctypes.c_void_p] * 4
    )
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The compiled helper, or ``None`` when unavailable.

    Runs the build/verify/load once per process; later calls return
    the same result.  :func:`status` tells why it is ``None``.
    """
    global _lib, _status
    if _status is not None:
        return _lib
    notes: List[str] = []
    scratch = path = None
    try:
        compiler, version = _compiler_identity()
        try:
            directory = private_cache_dir()
        except _Unavailable as exc:
            notes.append(str(exc))
            directory = scratch = tempfile.mkdtemp(prefix="repro-veval-")
        path = _helper_path(
            directory, cache_key(compiler, version), compiler, notes
        )
        _lib = _bind(ctypes.CDLL(path))
        reason = None
    except _Unavailable as exc:
        reason = str(exc)
    except (OSError, AttributeError) as exc:  # I/O, dlopen, symbols
        reason = f"load failed: {exc}"
    finally:
        if scratch is not None:
            # The mapping outlives the file: nothing else may load it.
            shutil.rmtree(scratch, ignore_errors=True)
    _status = Status(path if reason is None else None, reason, tuple(notes))
    return _lib
