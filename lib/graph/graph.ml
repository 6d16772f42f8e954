open Kaskade_util

type t = {
  schema : Schema.t;
  n : int;
  m : int;
  nets : int;  (* edge-type count: the stride of the segment indexes *)
  vtype : int array;
  out_off : int array;
  out_dst : int array;
  out_etype : int array;
  out_eid : int array;
  out_seg : int array;  (* (n*nets + 1) typed segment starts, see below *)
  in_off : int array;
  in_src : int array;
  in_etype : int array;
  in_eid : int array;
  in_seg : int array;
  e_src : int array;
  e_dst : int array;
  e_type : int array;
  vprops : Props.t;
  eprops : Props.t;
  by_type : int array array;
}

(* Each vertex's CSR segment is sorted by edge type (and by insertion
   id within a type), and [out_seg]/[in_seg] record where every
   (vertex, etype) run starts: slot v*nets + t holds the absolute
   start of vertex v's type-t run, and — runs being contiguous — the
   next slot holds its end, with the final slot pinned to m. Typed
   iteration therefore walks exactly deg_t(v) entries instead of
   filter-scanning the whole adjacency. *)
let of_arrays schema ~vtype ~e_src ~e_dst ~e_type ~vprops ~eprops =
  let n = Array.length vtype in
  let m = Array.length e_src in
  let nets = Schema.n_edge_types schema in
  (* Two-key counting sort into type-segmented CSR, both directions:
     one count per (vertex, etype) pair, prefix-summed in place. *)
  let out_seg = Array.make ((n * nets) + 1) 0 in
  let in_seg = Array.make ((n * nets) + 1) 0 in
  for e = 0 to m - 1 do
    let ty = e_type.(e) in
    let os = (e_src.(e) * nets) + ty and is_ = (e_dst.(e) * nets) + ty in
    out_seg.(os + 1) <- out_seg.(os + 1) + 1;
    in_seg.(is_ + 1) <- in_seg.(is_ + 1) + 1
  done;
  for i = 1 to n * nets do
    out_seg.(i) <- out_seg.(i) + out_seg.(i - 1);
    in_seg.(i) <- in_seg.(i) + in_seg.(i - 1)
  done;
  let out_off = Array.init (n + 1) (fun v -> out_seg.(v * nets)) in
  let in_off = Array.init (n + 1) (fun v -> in_seg.(v * nets)) in
  let out_dst = Array.make m 0 and out_etype = Array.make m 0 and out_eid = Array.make m 0 in
  let in_src = Array.make m 0 and in_etype = Array.make m 0 and in_eid = Array.make m 0 in
  let out_cursor = Array.sub out_seg 0 (Stdlib.max 1 (n * nets)) in
  let in_cursor = Array.sub in_seg 0 (Stdlib.max 1 (n * nets)) in
  for e = 0 to m - 1 do
    let s = e_src.(e) and d = e_dst.(e) and ty = e_type.(e) in
    let oi = out_cursor.((s * nets) + ty) in
    out_cursor.((s * nets) + ty) <- oi + 1;
    out_dst.(oi) <- d;
    out_etype.(oi) <- ty;
    out_eid.(oi) <- e;
    let ii = in_cursor.((d * nets) + ty) in
    in_cursor.((d * nets) + ty) <- ii + 1;
    in_src.(ii) <- s;
    in_etype.(ii) <- ty;
    in_eid.(ii) <- e
  done;
  let ntypes = Schema.n_vertex_types schema in
  let counts = Array.make ntypes 0 in
  Array.iter (fun ty -> counts.(ty) <- counts.(ty) + 1) vtype;
  let by_type = Array.map (fun c -> Array.make c 0) counts in
  let cursors = Array.make ntypes 0 in
  Array.iteri
    (fun v ty ->
      by_type.(ty).(cursors.(ty)) <- v;
      cursors.(ty) <- cursors.(ty) + 1)
    vtype;
  {
    schema;
    n;
    m;
    nets;
    vtype;
    out_off;
    out_dst;
    out_etype;
    out_eid;
    out_seg;
    in_off;
    in_src;
    in_etype;
    in_eid;
    in_seg;
    e_src;
    e_dst;
    e_type;
    vprops;
    eprops;
    by_type;
  }

let freeze builder =
  let schema = Builder.schema builder in
  let vtypes = Builder.internal_vtypes builder in
  let e_src_v, e_dst_v, e_type_v = Builder.internal_edges builder in
  let vprops, eprops = Builder.internal_props builder in
  of_arrays schema ~vtype:(Int_vec.to_array vtypes) ~e_src:(Int_vec.to_array e_src_v)
    ~e_dst:(Int_vec.to_array e_dst_v) ~e_type:(Int_vec.to_array e_type_v) ~vprops ~eprops

(* Array-level edge surgery for incremental view maintenance: no
   Builder round-trip (per-edge string lookups, Int_vec growth,
   per-entity prop lists), just blit-style copies into [of_arrays].
   Surviving edges keep their relative eid order; added edges append
   after them; appended vertices take ids n, n+1, ... When no vertices
   are appended the vertex-side arrays and property store are shared
   physically with [t] — safe because frozen graphs are never
   mutated. *)
let splice t ?(new_vertices = [||]) ~keep_eid ~add_edges () =
  let n_new = Array.length new_vertices in
  let n' = t.n + n_new in
  let vtype' =
    if n_new = 0 then t.vtype
    else
      Array.init n' (fun v ->
          if v < t.n then t.vtype.(v)
          else begin
            let ty, _ = new_vertices.(v - t.n) in
            if ty < 0 || ty >= Schema.n_vertex_types t.schema then
              invalid_arg "Graph.splice: vertex type out of range";
            ty
          end)
  in
  (* Dropped eids are collected once; the kept edges are then copied
     with segment blits between them (drops are typically sparse or
     absent, so this is three [Array.blit]s in the common case rather
     than a per-edge loop, and no O(m) eid-map array is needed: the
     new id of a kept edge is its old id minus the dropped eids before
     it, recovered by binary search over the small sorted list). *)
  let dropped_rev = ref [] and n_drop = ref 0 in
  for e = 0 to t.m - 1 do
    if not (keep_eid e) then begin
      dropped_rev := e :: !dropped_rev;
      Stdlib.incr n_drop
    end
  done;
  let dropped = Array.of_list (List.rev !dropped_rev) in
  let m_keep = t.m - !n_drop in
  let m' = m_keep + Array.length add_edges in
  let e_src = Array.make m' 0 and e_dst = Array.make m' 0 and e_type = Array.make m' 0 in
  let j = ref 0 and prev = ref 0 in
  let blit_upto stop =
    let len = stop - !prev in
    if len > 0 then begin
      Array.blit t.e_src !prev e_src !j len;
      Array.blit t.e_dst !prev e_dst !j len;
      Array.blit t.e_type !prev e_type !j len;
      j := !j + len
    end;
    prev := stop + 1
  in
  Array.iter blit_upto dropped;
  blit_upto t.m;
  let map_eid =
    if !n_drop = 0 then Fun.id
    else
      fun e ->
      let lo = ref 0 and hi = ref (Array.length dropped) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if dropped.(mid) < e then lo := mid + 1 else hi := mid
      done;
      if !lo < Array.length dropped && dropped.(!lo) = e then -1 else e - !lo
  in
  Array.iteri
    (fun i (src, dst, ty, _) ->
      if src < 0 || src >= n' || dst < 0 || dst >= n' then
        invalid_arg "Graph.splice: edge endpoint out of range";
      if ty < 0 || ty >= t.nets then invalid_arg "Graph.splice: edge type out of range";
      e_src.(m_keep + i) <- src;
      e_dst.(m_keep + i) <- dst;
      e_type.(m_keep + i) <- ty)
    add_edges;
  let eprops = Props.remap t.eprops map_eid in
  Array.iteri
    (fun i (_, _, _, props) -> List.iter (fun (k, v) -> Props.set eprops (m_keep + i) k v) props)
    add_edges;
  let vprops =
    if n_new = 0 then t.vprops
    else begin
      let vp = Props.remap t.vprops Fun.id in
      Array.iteri
        (fun i (_, props) -> List.iter (fun (k, v) -> Props.set vp (t.n + i) k v) props)
        new_vertices;
      vp
    end
  in
  of_arrays t.schema ~vtype:vtype' ~e_src ~e_dst ~e_type ~vprops ~eprops

let schema t = t.schema
let n_vertices t = t.n
let n_edges t = t.m

let vertex_type t v = t.vtype.(v)
let vertex_type_name t v = Schema.vertex_type_name t.schema t.vtype.(v)
let vertices_of_type t ty = t.by_type.(ty)
let vertices_of_type_name t name = t.by_type.(Schema.vertex_type_id t.schema name)
let out_degree t v = t.out_off.(v + 1) - t.out_off.(v)
let in_degree t v = t.in_off.(v + 1) - t.in_off.(v)

let iter_out t v f =
  for i = t.out_off.(v) to t.out_off.(v + 1) - 1 do
    f ~dst:t.out_dst.(i) ~etype:t.out_etype.(i) ~eid:t.out_eid.(i)
  done

let iter_in t v f =
  for i = t.in_off.(v) to t.in_off.(v + 1) - 1 do
    f ~src:t.in_src.(i) ~etype:t.in_etype.(i) ~eid:t.in_eid.(i)
  done

(* [start, stop) of the type-[etype] run of [v]'s adjacency. The run
   for the last etype of v ends exactly where v+1's first run starts,
   so [seg.(slot + 1)] is the stop bound for every slot. *)
let typed_out_slice t v ~etype =
  let slot = (v * t.nets) + etype in
  (t.out_seg.(slot), t.out_seg.(slot + 1))

let typed_in_slice t v ~etype =
  let slot = (v * t.nets) + etype in
  (t.in_seg.(slot), t.in_seg.(slot + 1))

let typed_out_degree t v ~etype =
  let lo, hi = typed_out_slice t v ~etype in
  hi - lo

let typed_in_degree t v ~etype =
  let lo, hi = typed_in_slice t v ~etype in
  hi - lo

let iter_out_etype t v ~etype f =
  let lo, hi = typed_out_slice t v ~etype in
  for i = lo to hi - 1 do
    f ~dst:t.out_dst.(i) ~eid:t.out_eid.(i)
  done

let iter_in_etype t v ~etype f =
  let lo, hi = typed_in_slice t v ~etype in
  for i = lo to hi - 1 do
    f ~src:t.in_src.(i) ~eid:t.in_eid.(i)
  done

let iter_edges t f =
  for e = 0 to t.m - 1 do
    f ~eid:e ~src:t.e_src.(e) ~dst:t.e_dst.(e) ~etype:t.e_type.(e)
  done

let edge_endpoints t e = (t.e_src.(e), t.e_dst.(e))
let edge_type t e = t.e_type.(e)

let vprop t v key = Props.get t.vprops v key
let vprop_or_null t v key = Props.get_or_null t.vprops v key
let eprop t e key = Props.get t.eprops e key
let eprop_or_null t e key = Props.get_or_null t.eprops e key

let vertex_props t v = Props.entity_props t.vprops v
let edge_props t e = Props.entity_props t.eprops e
let edge_prop_keys t = Props.keys t.eprops

let out_degrees_of_type t ty = Array.map (fun v -> out_degree t v) t.by_type.(ty)
let all_out_degrees t = Array.init t.n (fun v -> out_degree t v)

(* Zero-copy access for the snapshot codec: frozen graphs are never
   mutated, so sharing the arrays is safe. *)
let internal_arrays t = (t.vtype, t.e_src, t.e_dst, t.e_type)
let internal_props t = (t.vprops, t.eprops)

let pp_summary ppf t =
  Format.fprintf ppf "|V|=%s |E|=%s" (Table.fmt_int t.n) (Table.fmt_int t.m);
  Array.iteri
    (fun ty vs ->
      Format.fprintf ppf " %s:%s" (Schema.vertex_type_name t.schema ty) (Table.fmt_int (Array.length vs)))
    t.by_type

(* ------------------------------------------------------------------ *)
(* Delta overlay                                                       *)

module Overlay = struct
  type op =
    | Insert_vertex of { vtype : string; props : (string * Value.t) list }
    | Insert_edge of { src : int; dst : int; etype : string; props : (string * Value.t) list }
    | Delete_edge of { src : int; dst : int; etype : string }

  let pp_op ppf = function
    | Insert_vertex { vtype; _ } -> Format.fprintf ppf "+vertex(:%s)" vtype
    | Insert_edge { src; dst; etype; _ } -> Format.fprintf ppf "+edge(%d-[:%s]->%d)" src etype dst
    | Delete_edge { src; dst; etype } -> Format.fprintf ppf "-edge(%d-[:%s]->%d)" src etype dst

  type pending_edge = {
    pe_src : int;
    pe_dst : int;
    pe_etype : int;
    pe_props : (string * Value.t) list;
    mutable pe_live : bool;
  }

  (* [nonrec]: every [t] below is the frozen graph type. Pending edges
     live in one growable array; per-vertex [out_adj]/[in_adj] lists
     index into it so merged iteration appends exactly the vertex's
     own deltas after the base slice. Deletes of base edges tombstone
     the eid; deletes that land on a pending insert just flip its
     [pe_live] bit (the insert never happened, observably). *)
  type nonrec t = {
    mutable base : t;
    mutable version : int;
    mutable snapshot : (int * t) option;  (* compacted view of [version] *)
    pend_vtype : Int_vec.t;  (* inserted vertices; id = base.n + index *)
    pend_vprops : (int, (string * Value.t) list) Hashtbl.t;
    mutable pend_edges : pending_edge array;
    mutable n_pend : int;
    mutable n_live_pend : int;
    out_adj : (int, Int_vec.t) Hashtbl.t;  (* vertex -> pending edge indexes *)
    in_adj : (int, Int_vec.t) Hashtbl.t;
    deleted : (int, unit) Hashtbl.t;  (* tombstoned base eids *)
    pins : (int, int ref) Hashtbl.t;  (* version -> live pin count *)
  }

  let create base =
    {
      base;
      version = 0;
      snapshot = None;
      pend_vtype = Int_vec.create ();
      pend_vprops = Hashtbl.create 16;
      pend_edges = [||];
      n_pend = 0;
      n_live_pend = 0;
      out_adj = Hashtbl.create 16;
      in_adj = Hashtbl.create 16;
      deleted = Hashtbl.create 16;
      pins = Hashtbl.create 16;
    }

  let base o = o.base
  let version o = o.version

  let pending_vertices o = Int_vec.length o.pend_vtype
  let pending_edges o = o.n_live_pend
  let deleted_edges o = Hashtbl.length o.deleted
  let pending_ops o = pending_vertices o + pending_edges o + deleted_edges o
  let overlay_ratio o = float_of_int (pending_ops o) /. float_of_int (Stdlib.max 1 o.base.m)
  let needs_compact ?(threshold = 0.25) o = overlay_ratio o > threshold

  let n_vertices o = o.base.n + Int_vec.length o.pend_vtype
  let n_edges o = o.base.m - deleted_edges o + o.n_live_pend

  let vertex_type o v =
    if v < o.base.n then o.base.vtype.(v) else Int_vec.get o.pend_vtype (v - o.base.n)

  let vertex_type_name o v = Schema.vertex_type_name o.base.schema (vertex_type o v)

  let sorted_props props =
    List.sort (fun (a, _) (b, _) -> String.compare a b) props

  let vertex_props o v =
    if v < o.base.n then vertex_props o.base v
    else match Hashtbl.find_opt o.pend_vprops v with Some ps -> ps | None -> []

  let vprop_or_null o v key =
    if v < o.base.n then vprop_or_null o.base v key
    else
      match Hashtbl.find_opt o.pend_vprops v with
      | Some ps -> ( match List.assoc_opt key ps with Some x -> x | None -> Value.Null)
      | None -> Value.Null

  let adj_of tbl v =
    match Hashtbl.find_opt tbl v with
    | Some vec -> vec
    | None ->
      let vec = Int_vec.create () in
      Hashtbl.add tbl v vec;
      vec

  let iter_pending o tbl v f =
    match Hashtbl.find_opt tbl v with
    | None -> ()
    | Some idxs ->
      Int_vec.iter
        (fun i ->
          let e = o.pend_edges.(i) in
          if e.pe_live then f e (o.base.m + i))
        idxs

  let iter_out o v f =
    if v < o.base.n then
      iter_out o.base v (fun ~dst ~etype ~eid ->
          if not (Hashtbl.mem o.deleted eid) then f ~dst ~etype ~eid);
    iter_pending o o.out_adj v (fun e eid -> f ~dst:e.pe_dst ~etype:e.pe_etype ~eid)

  let iter_in o v f =
    if v < o.base.n then
      iter_in o.base v (fun ~src ~etype ~eid ->
          if not (Hashtbl.mem o.deleted eid) then f ~src ~etype ~eid);
    iter_pending o o.in_adj v (fun e eid -> f ~src:e.pe_src ~etype:e.pe_etype ~eid)

  let iter_out_etype o v ~etype f =
    if v < o.base.n then
      iter_out_etype o.base v ~etype (fun ~dst ~eid ->
          if not (Hashtbl.mem o.deleted eid) then f ~dst ~eid);
    iter_pending o o.out_adj v (fun e eid -> if e.pe_etype = etype then f ~dst:e.pe_dst ~eid)

  let out_degree o v =
    let c = ref 0 in
    iter_out o v (fun ~dst:_ ~etype:_ ~eid:_ -> Stdlib.incr c);
    !c

  let in_degree o v =
    let c = ref 0 in
    iter_in o v (fun ~src:_ ~etype:_ ~eid:_ -> Stdlib.incr c);
    !c

  let typed_out_degree o v ~etype =
    let c = ref 0 in
    iter_out_etype o v ~etype (fun ~dst:_ ~eid:_ -> Stdlib.incr c);
    !c

  let touch o = o.version <- o.version + 1

  let insert_vertex o ~vtype ?(props = []) () =
    let ty =
      match Schema.vertex_type_id o.base.schema vtype with
      | ty -> ty
      | exception Not_found -> invalid_arg ("Overlay.insert_vertex: unknown vertex type " ^ vtype)
    in
    let id = n_vertices o in
    Int_vec.push o.pend_vtype ty;
    if props <> [] then Hashtbl.replace o.pend_vprops id (sorted_props props);
    touch o;
    id

  let push_pending o e =
    if o.n_pend = Array.length o.pend_edges then begin
      let arr = Array.make (Stdlib.max 8 (2 * o.n_pend)) e in
      Array.blit o.pend_edges 0 arr 0 o.n_pend;
      o.pend_edges <- arr
    end;
    o.pend_edges.(o.n_pend) <- e;
    let i = o.n_pend in
    o.n_pend <- i + 1;
    o.n_live_pend <- o.n_live_pend + 1;
    i

  let insert_edge o ~src ~dst ~etype ?(props = []) () =
    let n = n_vertices o in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      invalid_arg "Overlay.insert_edge: endpoint out of range";
    let ty =
      match Schema.edge_type_id o.base.schema etype with
      | ty -> ty
      | exception Not_found -> invalid_arg ("Overlay.insert_edge: unknown edge type " ^ etype)
    in
    if Schema.edge_src o.base.schema ty <> vertex_type o src
       || Schema.edge_dst o.base.schema ty <> vertex_type o dst
    then invalid_arg ("Overlay.insert_edge: domain/range mismatch for " ^ etype);
    let i =
      push_pending o { pe_src = src; pe_dst = dst; pe_etype = ty; pe_props = sorted_props props; pe_live = true }
    in
    Int_vec.push (adj_of o.out_adj src) i;
    Int_vec.push (adj_of o.in_adj dst) i;
    touch o

  let delete_edge o ~src ~dst ~etype =
    match Schema.edge_type_id o.base.schema etype with
    | exception Not_found -> invalid_arg ("Overlay.delete_edge: unknown edge type " ^ etype)
    | ty ->
      let found = ref false in
      (* First live base instance, in eid order (typed slices are
         insertion-ordered within a type). *)
      if src >= 0 && src < o.base.n then begin
        let lo, hi = typed_out_slice o.base src ~etype:ty in
        let i = ref lo in
        while (not !found) && !i < hi do
          if o.base.out_dst.(!i) = dst && not (Hashtbl.mem o.deleted o.base.out_eid.(!i)) then begin
            Hashtbl.replace o.deleted o.base.out_eid.(!i) ();
            found := true
          end;
          Stdlib.incr i
        done
      end;
      (* Then pending inserts, in insertion order. *)
      if not !found then begin
        match Hashtbl.find_opt o.out_adj src with
        | None -> ()
        | Some idxs ->
          let len = Int_vec.length idxs in
          let j = ref 0 in
          while (not !found) && !j < len do
            let e = o.pend_edges.(Int_vec.get idxs !j) in
            if e.pe_live && e.pe_dst = dst && e.pe_etype = ty then begin
              e.pe_live <- false;
              o.n_live_pend <- o.n_live_pend - 1;
              found := true
            end;
            Stdlib.incr j
          done
      end;
      if !found then touch o;
      !found

  let apply o ops =
    List.filter
      (fun op ->
        match op with
        | Insert_vertex { vtype; props } ->
          ignore (insert_vertex o ~vtype ~props ());
          true
        | Insert_edge { src; dst; etype; props } ->
          insert_edge o ~src ~dst ~etype ~props ();
          true
        | Delete_edge { src; dst; etype } -> delete_edge o ~src ~dst ~etype)
      ops

  (* [splice] does exactly the overlay-merge: surviving base edges in
     eid order (tombstones out), then live pending edges in insertion
     order, plus appended vertices — at array-copy cost instead of a
     Builder round-trip. Every op was schema-checked on entry. *)
  let build_snapshot o =
    let new_vertices =
      Array.init (Int_vec.length o.pend_vtype) (fun i ->
          let id = o.base.n + i in
          let props = match Hashtbl.find_opt o.pend_vprops id with Some ps -> ps | None -> [] in
          (Int_vec.get o.pend_vtype i, props))
    in
    let add_edges = ref [] in
    for i = o.n_pend - 1 downto 0 do
      let e = o.pend_edges.(i) in
      if e.pe_live then add_edges := (e.pe_src, e.pe_dst, e.pe_etype, e.pe_props) :: !add_edges
    done;
    let add_edges = Array.of_list !add_edges in
    splice o.base ~new_vertices ~keep_eid:(fun eid -> not (Hashtbl.mem o.deleted eid)) ~add_edges ()

  let graph o =
    if pending_ops o = 0 then o.base
    else
      match o.snapshot with
      | Some (v, g) when v = o.version -> g
      | _ ->
        let g = build_snapshot o in
        o.snapshot <- Some (o.version, g);
        g

  let compact o =
    if pending_ops o = 0 then o.base
    else begin
      let g = graph o in
      o.base <- g;
      Int_vec.clear o.pend_vtype;
      Hashtbl.reset o.pend_vprops;
      o.pend_edges <- [||];
      o.n_pend <- 0;
      o.n_live_pend <- 0;
      Hashtbl.reset o.out_adj;
      Hashtbl.reset o.in_adj;
      Hashtbl.reset o.deleted;
      (* The snapshot cache stays: same version, same (now base) graph. *)
      o.snapshot <- Some (o.version, g);
      g
    end

  let maybe_compact ?threshold o =
    if needs_compact ?threshold o then begin
      ignore (compact o);
      true
    end
    else false

  (* Pinning captures the frozen snapshot of the current version.
     Frozen graphs are immutable — [apply]/[compact] build new ones and
     never touch graphs already handed out — so a pinned graph stays
     valid for as long as the caller keeps it, whatever the writer does
     next. The refcount table only serves observability (how many
     sessions still read which version); callers must serialize
     pin/unpin against mutation externally, e.g. under the serve-layer
     manager lock, because [graph o] fills the snapshot cache. *)
  let pin o =
    let g = graph o in
    let v = o.version in
    (match Hashtbl.find_opt o.pins v with
    | Some r -> Stdlib.incr r
    | None -> Hashtbl.add o.pins v (ref 1));
    (v, g)

  let unpin o v =
    match Hashtbl.find_opt o.pins v with
    | None -> invalid_arg "Overlay.unpin: version not pinned"
    | Some r ->
      Stdlib.decr r;
      if !r <= 0 then Hashtbl.remove o.pins v

  let pin_count o = Hashtbl.fold (fun _ r acc -> acc + !r) o.pins 0

  let pinned_versions o =
    Hashtbl.fold (fun v r acc -> (v, !r) :: acc) o.pins []
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
end
