from . import run

run()
