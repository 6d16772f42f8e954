open Kaskade_util
module Metrics = Kaskade_obs.Metrics
module Trace = Kaskade_obs.Trace

(* Sharded CSR: the single type-segmented CSR of [Graph], cut into S
   vertex partitions. Each shard owns a contiguous local vid space
   (locals are assigned in ascending global-vid order, so local
   iteration order agrees with global order within a shard) and stores
   a per-shard type-segmented CSR over those locals in both
   directions. Adjacency entries whose far endpoint lives in another
   shard do not store a vid at all: they store a negative index into
   the shard's cut-edge exchange — parallel arrays of (owner shard,
   local vid) pairs — so boundary resolution is an explicit two-hop
   read that the scan/expansion layer can route and count. *)

let m_builds = Metrics.counter ~help:"Sharded graphs built" "kaskade.shard.builds"
let m_scans = Metrics.counter ~help:"Shard-parallel typed scans" "kaskade.shard.scans"

let m_scan_rows =
  Metrics.counter ~help:"Adjacency rows produced by shard-parallel typed scans"
    "kaskade.shard.scan_rows"

let g_shards = Metrics.gauge ~help:"Shard count of the last sharded graph built" "kaskade.shard.count"

let g_cut_edges =
  Metrics.gauge ~help:"Cut (cross-shard) edges of the last sharded graph built"
    "kaskade.shard.cut_edges"

type policy = Hash | Type_range

let policy_name = function Hash -> "hash" | Type_range -> "type_range"

let policy_of_name = function
  | "hash" -> Hash
  | "type_range" -> Type_range
  | s -> invalid_arg ("Shard.policy_of_name: unknown policy " ^ s)

type shard = {
  globals : int array;  (* local vid -> global vid, strictly ascending *)
  s_by_type : int array array;  (* vtype -> local vids, ascending *)
  out_seg : int array;  (* (locals * nets + 1) typed segment starts *)
  out_dst : int array;  (* >= 0: local vid; < 0: -(exchange idx)-1 *)
  out_etype : int array;
  out_eid : int array;
  out_x_shard : int array;  (* cut-edge exchange, out direction *)
  out_x_local : int array;
  out_resolve : int array;  (* [globals] followed by the exchange
                               entries' resolved global vids: any
                               adjacency slot resolves with ONE
                               unconditional load — index arithmetic
                               selects the half, so the cut-edge test
                               never becomes a data-dependent branch
                               in the scan loop *)
  in_seg : int array;
  in_src : int array;
  in_etype : int array;
  in_eid : int array;
  in_x_shard : int array;
  in_x_local : int array;
  in_resolve : int array;
}

type t = {
  schema : Schema.t;
  policy : policy;
  s : int;
  n : int;
  m : int;
  nets : int;
  owner : int array;  (* global vid -> shard *)
  local_of : int array;  (* global vid -> local vid within its owner *)
  shards : shard array;
  by_type : int array array;  (* global scan candidates, ascending — the scan order *)
  cut : int;  (* out-direction adjacency entries crossing shards *)
}

(* Deterministic 63-bit avalanche (splitmix-style): the hash policy
   must scatter consecutive vids — generators assign vids in type
   blocks, so a modulo without mixing would degenerate into ranges. *)
let mix v =
  let h = v lxor (v lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  h land max_int

let assign_owners policy ~s ~n ~by_type =
  let owner = Array.make n 0 in
  (match policy with
  | Hash -> for v = 0 to n - 1 do owner.(v) <- mix v mod s done
  | Type_range ->
    (* Walk vertices in (vtype, vid) order and cut that sequence into
       S near-equal contiguous slices: shard boundaries fall between
       types where possible, so most shards hold whole type ranges. *)
    let base = n / s and extra = n mod s in
    let cap i = base + if i < extra then 1 else 0 in
    let sh = ref 0 and filled = ref 0 in
    Array.iter
      (fun vs ->
        Array.iter
          (fun v ->
            while !sh < s - 1 && !filled >= cap !sh do
              Stdlib.incr sh;
              filled := 0
            done;
            owner.(v) <- !sh;
            Stdlib.incr filled)
          vs)
      by_type);
  owner

let of_graph ?(policy = Hash) ~shards:s g =
  if s < 1 || s > 256 then invalid_arg "Shard.of_graph: shard count out of [1, 256]";
  (* The graph's raw arrays are only read — frozen graphs are never
     mutated; the per-shard CSRs are the only new structures. *)
  let schema = Graph.schema g in
  let vtype, e_src, e_dst, e_type = Graph.internal_arrays g in
  let n = Array.length vtype in
  let m = Array.length e_src in
  let nets = Schema.n_edge_types schema in
  let ntypes = Schema.n_vertex_types schema in
  Trace.with_span "shard.build"
    ~attrs:
      [ ("shards", string_of_int s); ("policy", policy_name policy);
        ("n", string_of_int n); ("m", string_of_int m) ]
  @@ fun () ->
  (* Global scan candidates, identical to [Graph.of_arrays]. *)
  let counts_ty = Array.make ntypes 0 in
  Array.iter (fun ty -> counts_ty.(ty) <- counts_ty.(ty) + 1) vtype;
  let by_type = Array.map (fun c -> Array.make c 0) counts_ty in
  let cursors_ty = Array.make ntypes 0 in
  Array.iteri
    (fun v ty ->
      by_type.(ty).(cursors_ty.(ty)) <- v;
      cursors_ty.(ty) <- cursors_ty.(ty) + 1)
    vtype;
  let owner = assign_owners policy ~s ~n ~by_type in
  (* Local vids in ascending global order per shard. *)
  let shard_n = Array.make s 0 in
  let local_of = Array.make n 0 in
  for v = 0 to n - 1 do
    let o = owner.(v) in
    local_of.(v) <- shard_n.(o);
    shard_n.(o) <- shard_n.(o) + 1
  done;
  let globals = Array.init s (fun i -> Array.make shard_n.(i) 0) in
  let fill_cursor = Array.make s 0 in
  for v = 0 to n - 1 do
    let o = owner.(v) in
    globals.(o).(fill_cursor.(o)) <- v;
    fill_cursor.(o) <- fill_cursor.(o) + 1
  done;
  (* Two-key counting sort per shard, both directions — the same
     layout [Graph.of_arrays] builds, restricted to owned vertices.
     Edges are scanned in global eid order, so every (vertex, etype)
     run keeps eid-ascending order, exactly like the single CSR. *)
  let out_segs = Array.init s (fun i -> Array.make ((shard_n.(i) * nets) + 1) 0) in
  let in_segs = Array.init s (fun i -> Array.make ((shard_n.(i) * nets) + 1) 0) in
  for e = 0 to m - 1 do
    let ty = e_type.(e) in
    let so = owner.(e_src.(e)) and d_o = owner.(e_dst.(e)) in
    let os = (local_of.(e_src.(e)) * nets) + ty in
    let is_ = (local_of.(e_dst.(e)) * nets) + ty in
    out_segs.(so).(os + 1) <- out_segs.(so).(os + 1) + 1;
    in_segs.(d_o).(is_ + 1) <- in_segs.(d_o).(is_ + 1) + 1
  done;
  for i = 0 to s - 1 do
    let oseg = out_segs.(i) and iseg = in_segs.(i) in
    for k = 1 to shard_n.(i) * nets do
      oseg.(k) <- oseg.(k) + oseg.(k - 1);
      iseg.(k) <- iseg.(k) + iseg.(k - 1)
    done
  done;
  let out_dst = Array.init s (fun i -> Array.make out_segs.(i).(shard_n.(i) * nets) 0) in
  let out_etype = Array.map (fun a -> Array.make (Array.length a) 0) out_dst in
  let out_eid = Array.map (fun a -> Array.make (Array.length a) 0) out_dst in
  let in_src = Array.init s (fun i -> Array.make in_segs.(i).(shard_n.(i) * nets) 0) in
  let in_etype = Array.map (fun a -> Array.make (Array.length a) 0) in_src in
  let in_eid = Array.map (fun a -> Array.make (Array.length a) 0) in_src in
  let out_cursor =
    Array.init s (fun i -> Array.sub out_segs.(i) 0 (Stdlib.max 1 (shard_n.(i) * nets)))
  in
  let in_cursor =
    Array.init s (fun i -> Array.sub in_segs.(i) 0 (Stdlib.max 1 (shard_n.(i) * nets)))
  in
  let out_xs = Array.init s (fun _ -> Int_vec.create ()) in
  let out_xl = Array.init s (fun _ -> Int_vec.create ()) in
  let out_xg = Array.init s (fun _ -> Int_vec.create ()) in
  let in_xs = Array.init s (fun _ -> Int_vec.create ()) in
  let in_xl = Array.init s (fun _ -> Int_vec.create ()) in
  let in_xg = Array.init s (fun _ -> Int_vec.create ()) in
  let cut = ref 0 in
  for e = 0 to m - 1 do
    let src = e_src.(e) and dst = e_dst.(e) and ty = e_type.(e) in
    let so = owner.(src) and d_o = owner.(dst) in
    let oi = out_cursor.(so).((local_of.(src) * nets) + ty) in
    out_cursor.(so).((local_of.(src) * nets) + ty) <- oi + 1;
    (if d_o = so then out_dst.(so).(oi) <- local_of.(dst)
     else begin
       Stdlib.incr cut;
       let x = Int_vec.length out_xs.(so) in
       Int_vec.push out_xs.(so) d_o;
       Int_vec.push out_xl.(so) local_of.(dst);
       Int_vec.push out_xg.(so) dst;
       out_dst.(so).(oi) <- -x - 1
     end);
    out_etype.(so).(oi) <- ty;
    out_eid.(so).(oi) <- e;
    let ii = in_cursor.(d_o).((local_of.(dst) * nets) + ty) in
    in_cursor.(d_o).((local_of.(dst) * nets) + ty) <- ii + 1;
    (if so = d_o then in_src.(d_o).(ii) <- local_of.(src)
     else begin
       let x = Int_vec.length in_xs.(d_o) in
       Int_vec.push in_xs.(d_o) so;
       Int_vec.push in_xl.(d_o) local_of.(src);
       Int_vec.push in_xg.(d_o) src;
       in_src.(d_o).(ii) <- -x - 1
     end);
    in_etype.(d_o).(ii) <- ty;
    in_eid.(d_o).(ii) <- e
  done;
  let shards =
    Array.init s (fun i ->
        let s_by_type = Array.map (fun c -> Int_vec.create ~capacity:(Stdlib.max 1 c) ()) counts_ty in
        Array.iter (fun v -> Int_vec.push s_by_type.(vtype.(v)) local_of.(v)) globals.(i);
        {
          globals = globals.(i);
          s_by_type = Array.map Int_vec.to_array s_by_type;
          out_seg = out_segs.(i);
          out_dst = out_dst.(i);
          out_etype = out_etype.(i);
          out_eid = out_eid.(i);
          out_x_shard = Int_vec.to_array out_xs.(i);
          out_x_local = Int_vec.to_array out_xl.(i);
          out_resolve = Array.append globals.(i) (Int_vec.to_array out_xg.(i));
          in_seg = in_segs.(i);
          in_src = in_src.(i);
          in_etype = in_etype.(i);
          in_eid = in_eid.(i);
          in_x_shard = Int_vec.to_array in_xs.(i);
          in_x_local = Int_vec.to_array in_xl.(i);
          in_resolve = Array.append globals.(i) (Int_vec.to_array in_xg.(i));
        })
  in
  Metrics.incr m_builds;
  Metrics.set_gauge g_shards (float_of_int s);
  Metrics.set_gauge g_cut_edges (float_of_int !cut);
  Trace.add_attr "cut_edges" (string_of_int !cut);
  { schema; policy; s; n; m; nets; owner; local_of; shards; by_type; cut = !cut }

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let schema t = t.schema
let policy t = t.policy
let n_shards t = t.s
let n_vertices t = t.n
let n_edges t = t.m
let cut_edges t = t.cut
let global_id t ~shard l = t.shards.(shard).globals.(l)
let shard_size t i = Array.length t.shards.(i).globals

let memory_words_of_shard (sh : shard) =
  Array.length sh.globals + Array.length sh.out_seg + Array.length sh.in_seg
  + (3 * Array.length sh.out_dst)
  + (3 * Array.length sh.in_src)
  + (2 * Array.length sh.out_x_shard)
  + Array.length sh.out_resolve
  + (2 * Array.length sh.in_x_shard)
  + Array.length sh.in_resolve
  + Array.fold_left (fun acc a -> acc + Array.length a) 0 sh.s_by_type

let shard_memory_words t i = memory_words_of_shard t.shards.(i)

let memory_words t =
  let per = ref 0 in
  Array.iter (fun sh -> per := !per + memory_words_of_shard sh) t.shards;
  !per

let vertices_of_type t ty = t.by_type.(ty)
let locals_of_type t ~shard ty = t.shards.(shard).s_by_type.(ty)

(* Boundary resolution: a negative adjacency entry indexes the
   exchange. The (shard, local) pair is the routing address a
   distributed deployment would ship; for in-process reads the cached
   global vid answers in one load — cut-heavy partitions (hash) spend
   most of a scan here. *)
(* enc >= 0 indexes the [globals] half directly; enc < 0 encodes the
   exchange index x as -(x+1), i.e. (lnot enc), living at offset
   n_locals. The sign mask turns the selection into pure index
   arithmetic — one load, no branch, which is what keeps a cut-heavy
   scan at single-CSR speed (the branch predictor has nothing to lose
   on). *)
let sign_shift = Sys.int_size - 1

let resolve_out (_t : t) (sh : shard) enc =
  let m = enc asr sign_shift in
  sh.out_resolve.((enc lxor m) + (m land Array.length sh.globals))

let resolve_in (_t : t) (sh : shard) enc =
  let m = enc asr sign_shift in
  sh.in_resolve.((enc lxor m) + (m land Array.length sh.globals))

let iter_out t v f =
  let sh = t.shards.(t.owner.(v)) in
  let l = t.local_of.(v) in
  let lo = sh.out_seg.(l * t.nets) and hi = sh.out_seg.((l + 1) * t.nets) in
  for i = lo to hi - 1 do
    f ~dst:(resolve_out t sh sh.out_dst.(i)) ~etype:sh.out_etype.(i) ~eid:sh.out_eid.(i)
  done

let iter_in t v f =
  let sh = t.shards.(t.owner.(v)) in
  let l = t.local_of.(v) in
  let lo = sh.in_seg.(l * t.nets) and hi = sh.in_seg.((l + 1) * t.nets) in
  for i = lo to hi - 1 do
    f ~src:(resolve_in t sh sh.in_src.(i)) ~etype:sh.in_etype.(i) ~eid:sh.in_eid.(i)
  done

let iter_out_etype t v ~etype f =
  let sh = t.shards.(t.owner.(v)) in
  let slot = (t.local_of.(v) * t.nets) + etype in
  let lo = sh.out_seg.(slot) and hi = sh.out_seg.(slot + 1) in
  for i = lo to hi - 1 do
    f ~dst:(resolve_out t sh sh.out_dst.(i)) ~eid:sh.out_eid.(i)
  done

let iter_in_etype t v ~etype f =
  let sh = t.shards.(t.owner.(v)) in
  let slot = (t.local_of.(v) * t.nets) + etype in
  let lo = sh.in_seg.(slot) and hi = sh.in_seg.(slot + 1) in
  for i = lo to hi - 1 do
    f ~src:(resolve_in t sh sh.in_src.(i)) ~eid:sh.in_eid.(i)
  done

let out_degree t v =
  let sh = t.shards.(t.owner.(v)) in
  let l = t.local_of.(v) in
  sh.out_seg.((l + 1) * t.nets) - sh.out_seg.(l * t.nets)

(* Every edge appears exactly once as an out-entry of its source's
   shard; iterating shards in order and each shard's out-CSR in local
   order therefore covers the edge set once, in shard-then-local order
   (not global eid order — order-insensitive consumers only, e.g.
   union-find connectivity). *)
let iter_edges t f =
  for i = 0 to t.s - 1 do
    let sh = t.shards.(i) in
    let locals = Array.length sh.globals in
    for l = 0 to locals - 1 do
      let src = sh.globals.(l) in
      let lo = sh.out_seg.(l * t.nets) and hi = sh.out_seg.((l + 1) * t.nets) in
      for k = lo to hi - 1 do
        f ~eid:sh.out_eid.(k) ~src ~dst:(resolve_out t sh sh.out_dst.(k)) ~etype:sh.out_etype.(k)
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Shard-parallel typed scan                                           *)

(* The [bench shard] kernel: walk every (source-typed vertex, etype)
   run, shard by shard, each shard's candidates fanned out over the
   pool as morsels. Returns (rows, checksum) where the checksum folds
   the resolved global destination vids — equal across shard counts
   (and to the single-CSR walk) iff the partitioned layout preserves
   the adjacency relation. *)
let typed_scan ?pool t ~etype =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let src_ty = Schema.edge_src t.schema etype in
  let rows = ref 0 and sum = ref 0 in
  Metrics.incr m_scans;
  (* With one effective worker the fan-out machinery is pure overhead —
     and it is per shard (closure allocation, span bookkeeping), so at
     S shards a sequential scan would pay it S times. The direct
     closure-free loop keeps typed_scan at single-CSR speed on narrow
     pools (the [bench smoke] typed_scan gate asserts exactly this). *)
  if Pool.effective_workers pool <= 1 && not (Trace.enabled ()) then begin
    let r = ref 0 and s = ref 0 in
    for i = 0 to t.s - 1 do
      let sh = t.shards.(i) in
      let cands = sh.s_by_type.(src_ty) in
      for c = 0 to Array.length cands - 1 do
        let slot = (cands.(c) * t.nets) + etype in
        for k = sh.out_seg.(slot) to sh.out_seg.(slot + 1) - 1 do
          Stdlib.incr r;
          s := (!s + resolve_out t sh sh.out_dst.(k)) land max_int
        done
      done
    done;
    rows := !r;
    sum := !s
  end
  else
    for i = 0 to t.s - 1 do
      let sh = t.shards.(i) in
      let cands = sh.s_by_type.(src_ty) in
      let scan_range lo hi =
        let r = ref 0 and s = ref 0 in
        for c = lo to hi - 1 do
          let l = cands.(c) in
          let slot = (l * t.nets) + etype in
          for k = sh.out_seg.(slot) to sh.out_seg.(slot + 1) - 1 do
            Stdlib.incr r;
            s := (!s + resolve_out t sh sh.out_dst.(k)) land max_int
          done
        done;
        (!r, !s)
      in
      let merge (r, s) =
        rows := !rows + r;
        sum := (!sum + s) land max_int
      in
      let body () =
        if Pool.effective_workers pool <= 1 then merge (scan_range 0 (Array.length cands))
        else
          Array.iter merge
            (Pool.map_morsels pool ~n:(Array.length cands) (fun ~lo ~hi -> scan_range lo hi))
      in
      if Trace.enabled () then
        Trace.with_span "shard.scan"
          ~attrs:[ ("shard", string_of_int i); ("candidates", string_of_int (Array.length cands)) ]
          body
      else body ()
    done;
  Metrics.incr ~by:!rows m_scan_rows;
  (!rows, !sum)

let pp_summary ppf t =
  Format.fprintf ppf "%d shard(s), policy=%s, |V|=%s |E|=%s cut=%s" t.s (policy_name t.policy)
    (Table.fmt_int t.n) (Table.fmt_int t.m) (Table.fmt_int t.cut);
  Array.iteri
    (fun i sh ->
      Format.fprintf ppf " [%d: v=%s e=%s]" i
        (Table.fmt_int (Array.length sh.globals))
        (Table.fmt_int (Array.length sh.out_dst)))
    t.shards
