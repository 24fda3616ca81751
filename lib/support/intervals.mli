(** Busy-interval bookkeeping for exclusive resources (communication links).

    A gap structure holds the {e live} busy intervals of one resource — a
    sorted list of disjoint [(start, stop)] pairs — plus the summed length
    of the intervals already {e retired} from it. Both the machine simulator
    and the static scheduler reserve link time with first-fit insertion, so
    predicted and simulated transfers share one contention model.

    {b Retire-watermark contract.} {!retire} [~before:w] drops the leading
    intervals that end at or before [w]. A caller that retires at [w] must
    never again ask for a slot with [earliest < w]: such a request could
    have landed in a gap the retired intervals bounded. Under that contract
    retiring is exact — every later {!first_fit}/{!reserve} returns the
    start it would have returned on the unretired structure (a retired
    interval ends at or before [earliest], so it can neither block the
    request nor move its start), and {!total} is bit-identical (the retired
    lengths are summed in start order, then the live ones are folded on
    top, the same float additions in the same order as one fold over the
    whole history).

    The simulator ([Machine.Sim]) retires at its clock before every
    reservation: transfers depart at or after the clock, which never goes
    back, so each link holds only the reservations still in flight and a
    stream costs linear time. The static scheduler ([Syndex.Place]) never
    retires: its list scheduler visits operations in topological order,
    whose [earliest] times are not monotone, so no watermark is safe there.
    Its structures only ever hold one schedule's transfers. *)

type t
(** Live intervals sorted by start, pairwise disjoint; plus a retired
    total. *)

val empty : t

val first_fit : t -> earliest:float -> duration:float -> float
(** Earliest start [>= earliest] such that [[start, start + duration)] does
    not overlap any live interval. *)

val reserve : t -> earliest:float -> duration:float -> float * t
(** [first_fit] plus insertion; returns the start and the updated
    structure. Runs in constant stack space. *)

val retire : t -> before:float -> t
(** Moves the leading live intervals that end at or before [before] into
    the retired total (see the contract above). Returns [t] itself when
    nothing retires. *)

val total : t -> float
(** Sum of interval lengths, retired and live. *)

val live : t -> (float * float) list
(** The live intervals, sorted by start. *)

val valid : t -> bool
(** Checks ordering and disjointness of the live intervals (for tests). *)
