open St_regex

type t = {
  num_states : int;
  start : int;
  eps : int list array;
  trans : (Charset.t * int) list array;
  accept_rule : int array;
}

(* Mutable builder: states are allocated sequentially. *)
type builder = {
  mutable count : int;
  mutable b_eps : (int * int) list;
  mutable b_trans : (int * Charset.t * int) list;
}

let fresh b =
  let s = b.count in
  b.count <- s + 1;
  s

let add_eps b p q = b.b_eps <- (p, q) :: b.b_eps
let add_trans b p cs q = b.b_trans <- (p, cs, q) :: b.b_trans

(* Thompson construction: [compile b r entry exit] wires a sub-automaton
   recognizing L(r) from state [entry] to state [exit]. *)
let rec compile b r entry exit =
  match r with
  | Regex.Eps -> add_eps b entry exit
  | Regex.Cls cs -> if not (Charset.is_empty cs) then add_trans b entry cs exit
  | Regex.Alt (x, y) ->
      compile b x entry exit;
      compile b y entry exit
  | Regex.Seq (x, y) ->
      let mid = fresh b in
      compile b x entry mid;
      compile b y mid exit
  | Regex.Star x ->
      let hub = fresh b in
      add_eps b entry hub;
      compile b x hub hub;
      add_eps b hub exit

let of_rules rules =
  assert (rules <> []);
  let b = { count = 0; b_eps = []; b_trans = [] } in
  let start = fresh b in
  let accepts =
    List.mapi
      (fun rule r ->
        let entry = fresh b in
        let exit = fresh b in
        add_eps b start entry;
        compile b r entry exit;
        (exit, rule))
      rules
  in
  let n = b.count in
  let eps = Array.make n [] in
  List.iter (fun (p, q) -> eps.(p) <- q :: eps.(p)) b.b_eps;
  let trans = Array.make n [] in
  List.iter (fun (p, cs, q) -> trans.(p) <- (cs, q) :: trans.(p)) b.b_trans;
  let accept_rule = Array.make n (-1) in
  List.iter
    (fun (s, rule) -> if accept_rule.(s) < 0 then accept_rule.(s) <- rule)
    accepts;
  { num_states = n; start; eps; trans; accept_rule }
