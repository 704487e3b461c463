(** The phase-3 engine: sparse worklist propagation over an explicit
    value-flow graph.

    Each discovered (function, context) pair is visited {e once}: on
    first discovery the engine builds the pair's value-flow successor
    edges (SSA def-use, load/store edges resolved by {!Pointsto},
    call/return edges, control-dependence edges from the cached CDGs),
    and a single worklist drain then propagates taint along out-edges.
    Entities and monitoring contexts are interned to dense integer ids
    ({!Intern}), so taint membership is a bitset lookup, and that
    interned state is the result ({!Phase3.flat}).

    The paper-shaped dense fixpoint, which re-scans every pair until no
    taint changes, lives under [test/] as the differential oracle:
    warnings, violations, discovered pairs, dependency classifications,
    fingerprints, rendered reports and coverage must agree with it
    ([test/test_engine_equiv.ml]).  Two deliberate, report-invisible
    deviations: propagation-trace parents may differ (both pick an
    arbitrary witness path), and control-taint is propagated
    monotonically where the fixpoint's data-taint branch shadows its
    control branch — the extra control marks land only on entities that
    are also data-tainted, and data shadows control everywhere the
    report classifies, so classifications agree. *)

(** CSR (compressed sparse row) adjacency over dense entity ids: the
    flat edge list the pair walks append to is finalized once — between
    the last walk and the worklist drain — into offset/target/info
    arrays, so the drain walks each entity's successors as one array
    slice.  Exposed for the property tests in [test/test_csr.ml]. *)
module Csr : sig
  type t = { off : int array; dst : int array; info : int array }

  val build : n:int -> src:int array -> dst:int array -> info:int array -> len:int -> t
  (** [build ~n ~src ~dst ~info ~len] sorts the first [len] edges
      [(src.(i), dst.(i), info.(i))] (source ids in [0, n)) into
      row-major adjacency.  Each row reads in {e reverse insertion
      order}, reproducing the cons-list adjacency this layout replaced
      (first-win taint origins depend on it). *)

  val degree : t -> int -> int

  val row : t -> int -> (int * int) list
  (** [(dst, info)] successors of a source, in row (= iteration)
      order *)
end

val run :
  ?config:Config.t ->
  ?absint:Absint.t ->
  Ssair.Ir.program ->
  Shm.t ->
  Phase1.t ->
  Pointsto.t ->
  Phase3.result
(** Phase 3 over one program.  [?absint] prunes control dependence of
    branches whose direction the value-range analysis decides
    (precision-only); [result.engine_stats] reports interned-entity,
    edge and worklist-pop counters.

    Pairs are walked sequentially in discovery order on the calling
    domain, so the edge insertion order, and with it every taint origin
    and witness trace, is deterministic.  There is no per-pair cache:
    walking a pair costs less than looking its edges up, so cached runs
    reuse the whole-program ["phase3"] result ({!Driver.stage_phase3})
    or rebuild every pair. *)
