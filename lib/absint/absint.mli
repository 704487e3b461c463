(** Interprocedural value-range abstract interpretation over the SSA IR.

    Computes, per function, an interval for every SSA value (plus the
    formal parameters and the return value) by a worklist fixpoint over
    the CFG with widening/narrowing at phi nodes and branch-condition
    refinement on CFG edges ([x < n] narrows the interval flowing into
    the true successor).  Call summaries are propagated over the
    {!Dataflow.Scc} condensation of the call graph: a bottom-up pass
    derives sound return-value ranges, then a top-down pass joins the
    argument ranges of every call site into formal-parameter ranges
    (entry points and recursion cycles keep ⊤).

    Consumers: Phase 2 discharges A1/A2 index obligations whose range is
    provably within bounds (and feeds finite ranges to the Omega solver
    as extra hypotheses); Phase 3 drops control-dependence edges for
    branches whose condition has a decided value; [safeflow ranges]
    dumps the summaries.  The analysis is purely an over-approximation:
    consumers may only ever {e remove} findings based on it. *)

(** Integer intervals with infinite bounds and saturating arithmetic. *)
module Itv : sig
  type bound = MInf | Fin of int | PInf

  type t = Bot | Iv of bound * bound
      (** [Iv (lo, hi)] with [lo <= hi]; [Bot] is the empty set *)

  val top : t
  val bot : t
  val const : int -> t
  val range : int -> int -> t
  (** [range lo hi] — [Bot] when [lo > hi] *)

  val is_bot : t -> bool
  val equal : t -> t -> bool
  val leq : t -> t -> bool  (** subset order *)

  val join : t -> t -> t
  val meet : t -> t -> t

  val widen : t -> t -> t
  (** [widen old next] jumps unstable bounds to ±∞ *)

  val narrow : t -> t -> t
  (** [narrow old next] refines only the infinite bounds of [old] *)

  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val neg : t -> t

  val contains : t -> int -> bool

  val is_zero : t -> bool
  (** exactly [0,0] *)

  val excludes_zero : t -> bool
  (** non-empty and 0 ∉ interval *)

  val within : t -> lo:int -> hi:int -> bool
  (** is the interval (possibly empty) contained in [lo, hi]? *)

  val finite_lo : t -> int option
  val finite_hi : t -> int option

  val pp : Format.formatter -> t -> unit
end

type func_summary
(** per-function result: value/param/return ranges, decided branches and
    fixpoint statistics.  Pure data — safe to marshal for caching. *)

type t
(** whole-program result: one summary per function *)

type span_probe = { span : 'a. string -> (unit -> 'a) -> 'a }
(** wraps a named stretch of the analysis (the caller's tracing hook) *)

val analyze :
  ?memo:(fname:string -> inputs_digest:string Lazy.t -> (unit -> func_summary) -> func_summary) ->
  ?span:span_probe ->
  Ssair.Ir.program ->
  t
(** [analyze prog] runs both interprocedural passes.  [~memo] is called
    around every per-function fixpoint with a digest of everything the
    fixpoint reads (the function body without its source locations, the
    type environment, parameter ranges and callee return ranges), once
    per distinct input: the top-down pass reuses a bottom-up result
    whose ranges are unchanged without calling it again; the
    driver uses it to back the computation with the content-addressed
    cache.  The digest is lazy, so a memo that does not force it costs
    nothing.  [~span] wraps the call-graph construction and the
    per-function summary bookkeeping of the top-down pass, each under
    the name ["absint.bookkeeping"]. *)

val iterations : t -> int
(** total fixpoint passes, all functions *)

val widenings : t -> int
(** total widening events, all functions *)

(** {1 Queries} *)

type dead = Dead_then | Dead_else
    (** which successor of a two-way branch is never taken *)

val dead_branch : t -> fname:string -> bid:Ssair.Ir.bid -> dead option
(** for a reachable block ending in [Cbr] with distinct successors:
    [Some _] when the condition's interval is decided (always zero or
    never zero), i.e. the branch cannot actually select at run time *)

type qctx
(** per-function query context: the function's value ranges as a table
    (built from its summary when the context is made; the result itself
    keeps summaries only) and the dominator tree used for branch
    refinement at query sites *)

val query_ctx : t -> Ssair.Ir.func -> qctx

val range_of_value : qctx -> at:Ssair.Ir.bid -> Ssair.Ir.value -> Itv.t
(** interval of a value as observed in block [at]: the fixpoint interval
    refined by every branch condition dominating [at] *)

val range_of_sym : qctx -> at:Ssair.Ir.bid -> string -> Itv.t option
(** interval for one of Phase 2's Omega symbols ([v<id>] for SSA values,
    [p_<name>] for parameters); [None] for opaque symbols *)

val pp_func_summary : t -> Format.formatter -> Ssair.Ir.func -> unit
(** human-readable dump used by [safeflow ranges] *)

(** {1 Summary views}

    A concrete, read-only projection of the per-function fixpoint —
    everything a certificate needs to record so an independent checker
    can re-verify the summaries as a post-fixpoint.  [sv_env] lists
    every SSA value the fixpoint ever stored (absence means Bot, the
    same convention the engine's own lookups use); [sv_ret_raw] is the
    join over reachable [ret] evaluations {e before} the Bot→top
    promotion applied to [sv_ret] (the promotion is for summary
    consumers; the raw join is the inductively justifiable fact). *)

type summary_view = {
  sv_func : string;
  sv_params : (string * Itv.t) list;
  sv_ret : Itv.t;
  sv_ret_raw : Itv.t;
  sv_env : (Ssair.Ir.vid * Itv.t) list;
}

val summary_views : t -> summary_view list
(** one view per analyzed function, sorted by function name *)
