(* Deterministic MiniC programs of one control-dependence shape, n
   levels wide or deep, for bounding phase 3's edge count and its exit
   code on deep nests.

   Each program reads the non-core [mode] field once (one unmonitored
   read) and an unconstrained but untainted [k] from an extern call.
   Only the outermost test of the construct reads [mode] (with
   [~inner:true], only the innermost one); every other test reads [k].
   Two sinks:
   - [assert(safe(k))] in the innermost block: [k] is untainted and,
     unless [inner], the block's own controlling test reads [k], so the
     site is control-only only through the transitive control
     dependence on the outermost test;
   - [assert(safe(out))] after the construct: [out] merges values
     assigned under the construct, a control-only dependency. *)

type shape = Chain | Nest | Switch | Loops

let all = [ Chain; Nest; Switch; Loops ]

let name = function Chain -> "chain" | Nest -> "nest" | Switch -> "switch" | Loops -> "loops"

let of_name = function
  | "chain" -> Some Chain
  | "nest" -> Some Nest
  | "switch" -> Some Switch
  | "loops" -> Some Loops
  | _ -> None

let prelude =
  {|struct Cmd {
  int mode;
};
typedef struct Cmd Cmd;

Cmd *cmd;

extern int sensor(void);
extern void actuate(int v);

void initComm()
/*** SafeFlow Annotation shminit ***/
{
  int shmid;
  void *shmStart;
  shmid = shmget(9000, sizeof(Cmd), 438);
  shmStart = shmat(shmid, (void *) 0, 0);
  cmd = (Cmd *) shmStart;
  InitCheck(shmStart, sizeof(Cmd));
  /*** SafeFlow Annotation
       assume(shmvar(cmd, sizeof(Cmd)))
       assume(noncore(cmd)) ***/
}

int main()
{
  int mode;
  int k;
  int out = 0;
  initComm();
  mode = cmd->mode;
  k = sensor();
|}

let inner_sink = "/*** SafeFlow Annotation assert(safe(k)) ***/\n"

let program ?(inner = false) shape n =
  if n < 1 then invalid_arg "Shapes.program: n < 1";
  let b = Buffer.create (64 * n + 1024) in
  let add fmt = Printf.bprintf b fmt in
  (* the variable the test at depth [i] of [levels] reads *)
  let var ?(levels = n) i = if i = (if inner then levels - 1 else 0) then "mode" else "k" in
  Buffer.add_string b prelude;
  (match shape with
  | Chain ->
    let sink i = if i = n - 1 then "    " ^ inner_sink else "" in
    add "  if (%s == 0) {\n    out = 1;\n%s  }\n" (var 0) (sink 0);
    for i = 1 to n - 1 do
      add "  else if (%s == %d) {\n    out = %d;\n%s  }\n" (var i) i (i + 1) (sink i)
    done
  | Nest ->
    add "  if (%s == 0) {\n" (var 0);
    for i = 1 to n - 1 do
      add "  out = %d;\n  if (%s > %d) {\n" i (var i) i
    done;
    add "  out = %d;\n  %s" n inner_sink;
    for _ = 1 to n do
      add "  }\n"
    done
  | Switch ->
    add "  switch (%s) {\n" (var ~levels:2 0);
    for i = 0 to n - 2 do
      add "  case %d:\n    out = %d;\n    break;\n" i (i + 1)
    done;
    add "  default:\n    out = %d;\n    if (%s > 0) {\n      %s    }\n    break;\n  }\n" n
      (var ~levels:2 1) inner_sink
  | Loops ->
    add "  while (%s > 0) {\n" (var 0);
    for i = 1 to n - 1 do
      add "  out = out + %d;\n  while (%s > %d) {\n" i (var i) i
    done;
    add "  out = out + %d;\n  %s" n inner_sink;
    for _ = 1 to n do
      add "  }\n"
    done);
  add "  /*** SafeFlow Annotation assert(safe(out)) ***/\n  actuate(out);\n  return 0;\n}\n";
  Buffer.contents b
