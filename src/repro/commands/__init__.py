"""The ``repro`` subcommands other than ``analyze``.

:mod:`repro.cli` parses every command line and runs ``repro analyze``
itself.  Every other subcommand's arguments and handler live in one of
these modules, which the CLI imports only when that subcommand runs;
each module maps its subcommands to ``(add_arguments, handler)`` in
``COMMANDS``.
"""
