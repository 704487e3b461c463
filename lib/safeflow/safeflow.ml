(** SafeFlow — static analysis to enforce safe value flow in embedded
    control systems (Kowshik, Roşu, Sha — DSN 2006).

    Public entry point: {!Driver.analyze} / {!Driver.analyze_file} run the
    full pipeline on MiniC source and return a {!Report.t} listing

    - restriction violations (P1–P3, A1/A2),
    - warnings (unmonitored reads of non-core shared memory),
    - error dependencies (critical data depending on unsafe values) and
      control-only dependencies (the paper's false-positive class).

    The submodules expose each stage for tools and benchmarks. *)

module Version = Version
module Config = Config
module Report = Report
module Telemetry = Telemetry
module Ledger = Ledger
module Hotspots = Hotspots
module Jsonlite = Jsonlite
module Events = Events
module Progress = Progress
module Logctx = Logctx
module Shm = Shm
module Phase1 = Phase1
module Phase2 = Phase2
module Phase3 = Phase3
module Intern = Intern
module Bitset = Bitset
module Digest_ir = Digest_ir
module Cache = Cache
module Vfgraph = Vfgraph
module Vfg = Vfg
module Driver = Driver
module Fleet = Fleet
module Synth = Synth
module Dyntaint = Dyntaint
module Summary = Summary
module Assume = Assume
module Fingerprint = Fingerprint
module Cert = Cert
module Sarif = Sarif
module Diffreport = Diffreport
module Coverage = Coverage
