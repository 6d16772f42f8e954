(* Metrics-name lint: every `kaskade.*` instrument registered in code
   must be documented in docs/OBSERVABILITY.md, and every `kaskade.*`
   name the doc mentions must exist in the registry — drift in either
   direction fails. The doc path is a dune dep of this test, so
   editing it re-runs the lint. *)

module Metrics = Kaskade_obs.Metrics

(* Registration happens at module-init time, so every library that
   registers an instrument must actually be linked into this binary.
   Referencing one value per registering module guarantees that. *)
let _force_linkage : unit list =
  [
    ignore Kaskade.version (* lib/core: view/query/plan-cache metrics *);
    ignore Kaskade_serve.Session.id (* lib/serve: session/queue/shed *);
    ignore Kaskade_serve.Server.run (* lib/serve: serve_requests *);
    ignore Kaskade_store.Wal.last_seq (* lib/store: wal_* *);
    ignore Kaskade_store.Store.last_seq (* lib/store: recovery_* *);
    ignore Kaskade_obs.Qlog.capacity (* lib/obs: slow_queries *);
  ]

(* Under `dune runtest` the cwd is the test's build directory (the dep
   is staged at ../docs/...); a direct `dune exec` from the repo root
   sees the source tree instead. *)
let doc_path =
  let candidates =
    [ Filename.concat (Filename.concat ".." "docs") "OBSERVABILITY.md";
      Filename.concat "docs" "OBSERVABILITY.md" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let prefix = "kaskade."

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Every maximal [a-z0-9_.] token starting with "kaskade." and not
   preceded by a name character, with trailing dots trimmed (sentence
   punctuation). The doc must therefore always spell metric names in
   full — abbreviated "`.view_misses`" forms are invisible here and
   show up as undocumented names. *)
let extract_documented text =
  let is_name_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '.' in
  let n = String.length text in
  let acc = ref [] in
  let i = ref 0 in
  while !i < n do
    if
      !i + String.length prefix <= n
      && String.sub text !i (String.length prefix) = prefix
      && (!i = 0 || not (is_name_char text.[!i - 1]))
    then begin
      let j = ref (!i + String.length prefix) in
      while !j < n && is_name_char text.[!j] do
        incr j
      done;
      let k = ref !j in
      while !k > !i && text.[!k - 1] = '.' do
        decr k
      done;
      let tok = String.sub text !i (!k - !i) in
      if String.length tok > String.length prefix then acc := tok :: !acc;
      i := !j
    end
    else incr i
  done;
  List.sort_uniq compare !acc

let test_names_in_sync () =
  let registered = List.filter (starts_with prefix) (Metrics.names ()) in
  Alcotest.(check bool) "engine metrics registered" true (registered <> []);
  let documented = extract_documented (read_file doc_path) in
  let missing_docs = List.filter (fun n -> not (List.mem n documented)) registered in
  let stale_docs = List.filter (fun n -> not (List.mem n registered)) documented in
  if missing_docs <> [] || stale_docs <> [] then
    Alcotest.failf
      "metric names out of sync with docs/OBSERVABILITY.md\n\
      \  registered but undocumented: %s\n\
      \  documented but unregistered: %s"
      (if missing_docs = [] then "(none)" else String.concat ", " missing_docs)
      (if stale_docs = [] then "(none)" else String.concat ", " stale_docs)

let () =
  Alcotest.run "metrics-lint"
    [ ("docs", [ Alcotest.test_case "kaskade.* names in sync" `Quick test_names_in_sync ]) ]
