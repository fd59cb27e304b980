let lock = Mutex.create ()

let setup ?dst () =
  Logs.set_reporter_mutex
    ~lock:(fun () -> Mutex.lock lock)
    ~unlock:(fun () -> Mutex.unlock lock);
  Logs.set_reporter (Logs_fmt.reporter ?dst ());
  Logs.set_level (Some Logs.Warning)
