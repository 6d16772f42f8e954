module Budget = Kaskade_util.Budget

type t =
  | Parse of { message : string; line : int; col : int }
  | Plan of string
  | Budget_exhausted of { stage : Budget.stage; detail : string }
  | Refresh_failed of { view : string; reason : string }
  | Overloaded of { resource : string; capacity : int; in_use : int }
  | Io of string

exception Refresh_error of { view : string; reason : string }
exception Overload of { resource : string; capacity : int; in_use : int }

let to_string = function
  | Parse { message; line; col } ->
    Printf.sprintf "parse error at %d:%d: %s" line col message
  | Plan msg -> "planning error: " ^ msg
  | Budget_exhausted { stage; detail } ->
    Printf.sprintf "budget exhausted during %s: %s" (Budget.stage_label stage) detail
  | Refresh_failed { view; reason } ->
    Printf.sprintf "refresh of view %s failed: %s" view reason
  | Overloaded { resource; capacity; in_use } ->
    Printf.sprintf "overloaded: %s at capacity (%d/%d in use)" resource in_use capacity
  | Io msg -> "I/O error: " ^ msg


let label = function
  | Parse _ -> "parse"
  | Plan _ -> "plan"
  | Budget_exhausted _ -> "budget_exhausted"
  | Refresh_failed _ -> "refresh_failed"
  | Overloaded _ -> "overloaded"
  | Io _ -> "io"

let of_exn = function
  | Kaskade_query.Qparser.Parse_error { message; line; col } ->
    Some (Parse { message; line; col })
  | Kaskade_query.Analyze.Semantic_error msg -> Some (Plan msg)
  | Invalid_argument msg -> Some (Plan msg)
  | Not_found -> Some (Plan "no such view or entity")
  | Kaskade_prolog.Engine.Runtime_error msg -> Some (Plan ("inference: " ^ msg))
  | Kaskade_prolog.Engine.Budget_exceeded limit ->
    (* Only reachable when enumeration runs without a [Budget.t] (its
       own hard step ceiling); budgeted runs convert this earlier. *)
    Some
      (Budget_exhausted
         {
           stage = Budget.Enumerate;
           detail = Printf.sprintf "engine step limit of %d exceeded" limit;
         })
  | Budget.Exhausted { stage; detail } -> Some (Budget_exhausted { stage; detail })
  | Refresh_error { view; reason } -> Some (Refresh_failed { view; reason })
  | Overload { resource; capacity; in_use } -> Some (Overloaded { resource; capacity; in_use })
  | Budget.Fault_injected { site } -> Some (Io ("injected fault at " ^ site))
  | Unix.Unix_error (err, fn, arg) ->
    (* Socket/file failures from the serve loop must surface as typed
       errors, not kill the accept thread. *)
    let where = if arg = "" then fn else fn ^ " " ^ arg in
    Some (Io (Printf.sprintf "%s: %s" where (Unix.error_message err)))
  | Kaskade_graph.Gio.Format_error (msg, line) ->
    Some (Io (Printf.sprintf "line %d: %s" line msg))
  | Kaskade_store.Codec.Corrupt { file; reason } ->
    Some (Io (Printf.sprintf "%s: %s" file reason))
  | End_of_file -> Some (Io "unexpected end of file (truncated read)")
  | Sys_error msg -> Some (Io msg)
  | _ -> None

let guard f =
  match f () with
  | v -> Ok v
  | exception e -> begin
    match of_exn e with Some err -> Error err | None -> raise e
  end
