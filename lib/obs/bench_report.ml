type run = {
  config : string;
  loops : int;
  jobs : int;
  sum_ii : (int * float) option;
  cold_wall_s : float;
  warm_wall_s : float;
  phase_ns : (string * int) list;
}

let run_to_string r =
  Printf.sprintf
    "  { \"config\": %S, \"loops\": %d, \"jobs\": %d,\n%s\
    \    \"cold_wall_s\": %.3f, \"warm_wall_s\": %.3f,\n\
    \    \"phase_ns\": { %s } }"
    r.config r.loops r.jobs
    (match r.sum_ii with
    | None -> ""
    | Some (ii, pct) ->
      Printf.sprintf "    \"sum_ii\": %d, \"pct_at_mii\": %.1f,\n" ii pct)
    r.cold_wall_s r.warm_wall_s
    (String.concat ", "
       (List.map (fun (k, ns) -> Printf.sprintf "%S: %d" k ns) r.phase_ns))

let to_string runs =
  Printf.sprintf "{ \"schema\": \"hcrf-bench/1\", \"runs\": [\n%s\n] }\n"
    (String.concat ",\n" (List.map run_to_string runs))

let write file runs =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (to_string runs))
