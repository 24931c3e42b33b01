"""Graceful-degradation watchdog for the core's PFM-facing side.

Section 2.4 sketches a chicken switch: if the fetch unit waits too long
on IntQ-F the whole fabric is disabled.  That is a blunt instrument —
one glitch and the component is gone for the rest of the run.  This
module refines it into three targeted defenses, each with dedicated
:class:`~repro.core.stats.SimStats` counters:

* **Fetch-stall timeout** — a fetch stalled on an empty IntQ-F past
  ``fetch_timeout_cycles`` falls back to the core's own TAGE prediction
  for that branch only.  If the component's observable activity
  (predictions produced, queue pops) freezes across
  :data:`FETCH_TIMEOUT_DISABLE_AFTER` consecutive timeouts, the component is
  declared dead (a frozen clkC never refills IntQ-F) and the fabric is
  disabled outright; a slow-but-alive component keeps consuming
  observations between timeouts and is left alone.
* **Override-accuracy breaker** — windowed accuracy of Fetch Agent
  overrides (:data:`ACCURACY_WINDOW` per window) below
  ``min_override_accuracy`` suppresses overrides for
  :data:`OVERRIDE_DISABLE_PREDICTIONS` FST hits, then re-enables for a
  trial window.  Re-tripping during the trial doubles the suppression
  period (hysteresis, capped at :data:`MAX_OVERRIDE_DISABLE_PREDICTIONS`);
  a clean window resets the backoff.
* **MLB-thrash throttle** — when ``mlb_full_streak`` consecutive missed
  loads all found the MLB at capacity (a full buffer defers acceptance
  instead of replaying; healthy fill bursts produce streaks up to about
  the MLB capacity, chronic thrash far beyond it), the Load Agent drops
  the next :data:`MLB_THROTTLE_LOADS` injection packets instead of
  letting the MLB thrash the cache ports.

The four thresholds default to ``None``/off so a plain configuration
behaves exactly as before; the ``faults`` campaign enables them.  The
module constants below fix the rest of each defense's shape.

:class:`RecoveryPolicy` is the constructive twin of the defenses above:
instead of amputating a sick component forever, the fabric's
:class:`~repro.pfm.reconfig.ReconfigController` consumes this policy to
quiesce, drain, and hot-reload the bitstream — up to ``max_reloads``
times with exponential backoff — before falling back to the permanent
disable.  The policy lives here (not in ``repro.pfm``) because the
watchdog owns the triggers the controller reacts to.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Consecutive no-progress fetch timeouts before the component is
#: declared dead and the fabric disabled.
FETCH_TIMEOUT_DISABLE_AFTER = 8
#: Overrides per accuracy evaluation window.
ACCURACY_WINDOW = 64
#: FST hits suppressed after a breaker trip (doubles on re-trip, capped).
OVERRIDE_DISABLE_PREDICTIONS = 256
MAX_OVERRIDE_DISABLE_PREDICTIONS = 4096
#: Injection packets dropped per MLB-thrash throttle event.
MLB_THROTTLE_LOADS = 128


@dataclass
class WatchdogParams:
    """Graceful-degradation thresholds (all off by default)."""

    #: Max core cycles fetch may stall waiting on IntQ-F before falling
    #: back to the core's TAGE prediction (None = legacy unbounded wait,
    #: backstopped only by the chicken switch,
    #: :data:`repro.pfm.tenancy.WATCHDOG_RF_CYCLES`).
    fetch_timeout_cycles: int | None = None
    #: Core cycles the retire unit waits for a lost squash-done before
    #: the watchdog un-stalls it (None = legacy fixed penalty).
    squash_timeout_cycles: int | None = None

    #: Minimum windowed override accuracy (None = breaker off).
    min_override_accuracy: float | None = None
    #: Consecutive MLB-full misses that count as thrash (None = throttle
    #: off).  Healthy fill bursts produce streaks up to about the MLB
    #: capacity; 1.5x the paper's 64 entries is a safe default when
    #: enabling this trigger.
    mlb_full_streak: int | None = None

    def active(self) -> bool:
        return (
            self.fetch_timeout_cycles is not None
            or self.min_override_accuracy is not None
            or self.mlb_full_streak is not None
        )

    def __post_init__(self) -> None:
        if self.fetch_timeout_cycles is not None and self.fetch_timeout_cycles < 1:
            raise ValueError("fetch_timeout_cycles must be >= 1")
        if self.min_override_accuracy is not None and not (
            0.0 <= self.min_override_accuracy <= 1.0
        ):
            raise ValueError("min_override_accuracy must be in [0, 1]")
        if self.mlb_full_streak is not None and self.mlb_full_streak < 1:
            raise ValueError("mlb_full_streak must be >= 1")


@dataclass
class RecoveryPolicy:
    """Self-healing reconfiguration policy (inactive by default).

    Consumed by :class:`repro.pfm.reconfig.ReconfigController`.  With the
    defaults the controller is never built and the fabric behaves exactly
    as before: dead-component declarations and exhausted RF budgets
    disable the fabric permanently.
    """

    #: Failure-triggered hot reloads attempted before the controller
    #: gives up and disables the fabric permanently (0 = recovery off).
    #: Their cost model (latency, backoff, drain patience) is fixed in
    #: :mod:`repro.pfm.reconfig`.
    max_reloads: int = 0
    #: Also reload when the override-accuracy breaker re-trips (the
    #: component is alive but hinting garbage — a reload scrubs it).
    reload_on_breaker: bool = False
    #: Reload after this many watchdog squash timeouts (a lost
    #: squash-done leaves the handshake protocol itself suspect); None
    #: leaves the squash path to the watchdog alone.
    squash_timeout_reload_after: int | None = None
    #: Core time of one planned same-bitstream swap (maintenance scrub /
    #: the architectural-invisibility experiment); does not count against
    #: ``max_reloads`` and never backs off.  None = no scheduled swap.
    scheduled_reload_at: int | None = None

    def active(self) -> bool:
        return self.max_reloads > 0 or self.scheduled_reload_at is not None

    def __post_init__(self) -> None:
        if self.max_reloads < 0:
            raise ValueError("max_reloads must be >= 0")
        if (
            self.squash_timeout_reload_after is not None
            and self.squash_timeout_reload_after < 1
        ):
            raise ValueError("squash_timeout_reload_after must be >= 1")
        if self.scheduled_reload_at is not None and self.scheduled_reload_at < 0:
            raise ValueError("scheduled_reload_at must be >= 0")


class Watchdog:
    """Per-run watchdog state; the fabric owns one instance."""

    def __init__(self, params: WatchdogParams):
        self.params = params
        # fetch-stall timeout
        self.component_dead = False
        self.fetch_timeouts = 0
        self.dead_declarations = 0
        self.squash_timeouts = 0
        self._consecutive_timeouts = 0
        self._progress_at_last_timeout: object = None
        # override-accuracy breaker
        self.override_disables = 0
        self.overrides_suppressed = 0
        #: Level-triggered flag for the reconfiguration controller: set on
        #: every breaker trip, cleared by whoever polls it.  The watchdog
        #: never imports the controller (core must not depend on pfm), so
        #: the handoff is this flag rather than a callback.
        self.breaker_trip_pending = False
        self._window_total = 0
        self._window_correct = 0
        self._suppress_remaining = 0
        self._disable_period = OVERRIDE_DISABLE_PREDICTIONS
        self._trial_window = False
        # MLB-thrash throttle
        self.load_throttle_events = 0
        self.loads_dropped = 0
        self._full_streak = 0
        self._throttle_remaining = 0

    # ------------------------------------------------------------------ #
    # fetch-stall timeout
    # ------------------------------------------------------------------ #

    def fetch_deadline(self, fetch_time: int) -> int | None:
        """Latest core time fetch will wait for this branch's packet."""
        if self.params.fetch_timeout_cycles is None:
            return None
        return fetch_time + self.params.fetch_timeout_cycles

    def on_fetch_timeout(self, progress_token) -> None:
        """A fetch-stall deadline expired.

        *progress_token* is any equatable snapshot of the component's
        observable activity (predictions produced, queue pops).  A
        healthy-but-slow component — e.g. one waiting out a memory round
        trip before it can predict — keeps consuming observations and
        load returns between timeouts, so its token changes; a frozen
        clkC changes nothing, and a run of identical-token timeouts
        declares it dead."""
        self.fetch_timeouts += 1
        if progress_token == self._progress_at_last_timeout:
            self._consecutive_timeouts += 1
        else:
            self._consecutive_timeouts = 1
            self._progress_at_last_timeout = progress_token
        if self._consecutive_timeouts >= FETCH_TIMEOUT_DISABLE_AFTER:
            if not self.component_dead:
                self.dead_declarations += 1
            self.component_dead = True

    def on_fetch_delivered(self) -> None:
        self._consecutive_timeouts = 0
        self._progress_at_last_timeout = None

    # ------------------------------------------------------------------ #
    # override-accuracy breaker
    # ------------------------------------------------------------------ #

    def overrides_allowed(self) -> bool:
        return self._suppress_remaining == 0

    def note_suppressed(self) -> None:
        """One FST hit served by the core's predictor while suppressed."""
        self.overrides_suppressed += 1
        if self._suppress_remaining > 0:
            self._suppress_remaining -= 1
            if self._suppress_remaining == 0:
                # Re-enable for a trial window; a clean window resets the
                # backoff, a re-trip doubles it (hysteresis).
                self._trial_window = True
                self._window_total = 0
                self._window_correct = 0

    def record_override(self, correct: bool) -> None:
        """One consumed Fetch Agent override, graded against retirement."""
        threshold = self.params.min_override_accuracy
        if threshold is None:
            return
        self._window_total += 1
        self._window_correct += int(correct)
        if self._window_total < ACCURACY_WINDOW:
            return
        accuracy = self._window_correct / self._window_total
        if accuracy < threshold:
            self.override_disables += 1
            self.breaker_trip_pending = True
            if self._trial_window:
                self._disable_period = min(
                    self._disable_period * 2, MAX_OVERRIDE_DISABLE_PREDICTIONS
                )
            self._suppress_remaining = self._disable_period
        else:
            self._disable_period = OVERRIDE_DISABLE_PREDICTIONS
        self._trial_window = False
        self._window_total = 0
        self._window_correct = 0

    # ------------------------------------------------------------------ #
    # MLB-thrash throttle
    # ------------------------------------------------------------------ #

    def record_injected_load(self, missed: bool, mlb_full: bool) -> None:
        """One injected (non-prefetch) load issued.

        *missed* says it went through the MLB at all; *mlb_full* says it
        found the MLB at capacity (deferred acceptance — the signature of
        a shrunk or overwhelmed buffer, invisible in replay counts).
        """
        streak_limit = self.params.mlb_full_streak
        if streak_limit is None:
            return
        if missed:
            self._full_streak = self._full_streak + 1 if mlb_full else 0
        if self._throttle_remaining > 0:
            return
        if self._full_streak >= streak_limit:
            self.load_throttle_events += 1
            self._throttle_remaining = MLB_THROTTLE_LOADS
            self._full_streak = 0

    def on_reload(self) -> None:
        """A hot reload replaced the component: reset per-instance state.

        Cumulative counters (``dead_declarations``, ``override_disables``,
        ...) survive — they describe the run — but liveness judgements and
        the breaker's hysteresis belong to the torn-down instance: the
        replacement starts with a clean slate, otherwise it would be
        declared dead (or suppressed) on arrival for its predecessor's
        sins.
        """
        self.component_dead = False
        self._consecutive_timeouts = 0
        self._progress_at_last_timeout = None
        self.breaker_trip_pending = False
        self._suppress_remaining = 0
        self._disable_period = OVERRIDE_DISABLE_PREDICTIONS
        self._trial_window = False
        self._window_total = 0
        self._window_correct = 0

    def load_throttled(self) -> bool:
        return self._throttle_remaining > 0

    def note_load_dropped(self) -> None:
        self.loads_dropped += 1
        if self._throttle_remaining > 0:
            self._throttle_remaining -= 1

    # ------------------------------------------------------------------ #

    def counters(self) -> dict[str, int]:
        """Counter snapshot folded into ``SimStats`` at finalize."""
        return {
            "fetch_timeouts": self.fetch_timeouts,
            "dead_declarations": self.dead_declarations,
            "squash_timeouts": self.squash_timeouts,
            "override_disables": self.override_disables,
            "overrides_suppressed": self.overrides_suppressed,
            "load_throttle_events": self.load_throttle_events,
            "loads_dropped": self.loads_dropped,
        }
